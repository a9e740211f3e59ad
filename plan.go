package hashjoin

// Public face of the cost-based strategy planner (internal/plan): the
// join-type and strategy vocabularies, the options that select them,
// and the EXPLAIN payload RunPipeline reports when the planner is
// consulted.

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

// PlanDecision is the planner's EXPLAIN payload: the chosen strategy
// and every input the choice was made from. Decision.Explain() formats
// it as the one-line form all EXPLAIN surfaces print.
type PlanDecision = plan.Decision

// WithJoinType selects the join's matching semantics (default Inner).
// All engines, strategies, and memory tiers support every join type;
// results are bit-identical across them.
func WithJoinType(jt JoinType) PipelineOption {
	return func(c *pipelineConfig) { c.joinType = jt }
}

// WithStrategy engages the cost-based planner: the run consults
// plan.Choose with the relations' cardinalities, the build footprint
// and the memory budget, executes the decision, and reports it in
// PipelineResult.Plan. StrategyAuto executes what the planner picked
// (including its derived fan-out, overriding WithPipelineFanout); a
// concrete strategy overrides the planner's pick but still records what
// it preferred, and beside it a WithPipelineFanout above 1 is the width
// of a partitioned join. Without this option the legacy fanout-driven
// selection applies unchanged and Plan stays nil.
func WithStrategy(s Strategy) PipelineOption {
	return func(c *pipelineConfig) { c.strategy, c.strategySet = s, true }
}
