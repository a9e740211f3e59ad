package hashjoin

// Public face of the cost-based strategy planner (internal/plan): the
// join-type and strategy vocabularies, the options that select them,
// and the EXPLAIN payload every RunPipeline reports.

import "hashjoin/internal/plan"

// JoinType selects the join's matching semantics. The probe relation is
// the join's left input: LeftOuter null-pads the build columns of
// unmatched probe rows (all-zero bytes), RightOuter emits unmatched
// build rows with the probe columns null-padded, and LeftSemi/LeftAnti
// emit the probe tuple only — narrowing the join's output width to the
// probe width, which matters for WithAggregation offsets.
type JoinType = plan.JoinType

const (
	// Inner emits one build||probe row per key match (the default).
	Inner = plan.Inner
	// LeftOuter additionally emits unmatched probe rows, null-padded.
	LeftOuter = plan.LeftOuter
	// RightOuter additionally emits unmatched build rows, null-padded.
	RightOuter = plan.RightOuter
	// LeftSemi emits each matched probe row once, probe columns only.
	LeftSemi = plan.LeftSemi
	// LeftAnti emits each unmatched probe row once, probe columns only.
	LeftAnti = plan.LeftAnti
)

// ParseJoinType parses a join type name ("inner", "left-outer",
// "right-outer", "semi", "anti", plus aliases).
func ParseJoinType(s string) (JoinType, error) { return plan.ParseJoinType(s) }

// Strategy is the join's physical execution strategy.
type Strategy = plan.Strategy

const (
	// StrategyAuto lets the cost-based planner decide (see WithStrategy).
	StrategyAuto = plan.Auto
	// StrategyStream builds one resident hash table and streams probe
	// batches through it.
	StrategyStream = plan.StreamHash
	// StrategyPartitioned radix-partitions both sides and joins the
	// pairs on the morsel pool (native engine only).
	StrategyPartitioned = plan.PartitionedHash
)

// ParseStrategy parses a strategy name ("auto", "stream",
// "partitioned", plus aliases).
func ParseStrategy(s string) (Strategy, error) { return plan.ParseStrategy(s) }

// PlanDecision is the EXPLAIN payload: the strategy and fan-out a run
// executed and every input the choice was made from, taken from the
// relations the join read.
// Decision.Explain() formats it as the one-line form all EXPLAIN
// surfaces print.
type PlanDecision = plan.Decision

// WithJoinType selects the join's matching semantics (default Inner).
// All engines, strategies, and memory tiers support every join type;
// results are bit-identical across them.
func WithJoinType(jt JoinType) PipelineOption {
	return func(c *pipelineConfig) { c.joinType = jt }
}

// WithStrategy forces the join's strategy, or with StrategyAuto leaves
// it to the one rule the join resolves by when it opens (plan.Resolve;
// its table is in DESIGN.md, "One strategy rule"): a fan-out named with
// WithPipelineFanout holds beside it, and without one the cost-based
// planner picks from the relations the join reads (a filtered build as
// filtered) and the budget. A conflicting pair — StrategyStream beside
// a fan-out above 1, StrategyPartitioned on EngineSim or beside
// WithBuildSide — makes RunPipeline return an error before admission.
// Given alone, WithStrategy names no fan-out; the default fan-out 1
// holds only when neither option is given.
func WithStrategy(s Strategy) PipelineOption {
	return func(c *pipelineConfig) {
		c.strategy = s
		if !c.fanoutSet {
			c.fanout = 0
		}
	}
}
