// Package plan is the cost-based join strategy planner: given workload
// statistics, a join type, and the admitted memory window, Choose picks
// the cheapest execution strategy — a single streaming hash probe for
// cache-resident build sides, of any size down to none, or the
// radix-partitioned morsel join when the build side overflows the cache
// or the memory budget.
//
// The crossover between the two is not guessed: it is measured by the
// root package's calibration benchmark (BenchmarkJoinCrossover, which
// logs the measured crossover beside the pinned one) and pinned here as
// a default. EXPERIMENTS.md records the readings per host; re-pinning
// changes Choose's output and is a planner change of its own.
//
// The package is a dependency leaf: it imports only the standard
// library, so every layer — native kernels, the operator engine, the
// CLI front ends, and the workload generator — can share its JoinType
// and Strategy vocabularies without import cycles.
package plan

import (
	"fmt"
	"strings"
)

// JoinType selects the join's matching semantics. The probe relation is
// always the left input and the build relation the right one, so a
// LeftOuter join null-pads the build columns of unmatched probe rows
// and a RightOuter join emits unmatched build rows.
type JoinType uint8

const (
	// Inner emits one build||probe row per key match.
	Inner JoinType = iota
	// LeftOuter additionally emits every unmatched probe row once, its
	// build columns null-padded (all-zero bytes).
	LeftOuter
	// RightOuter additionally emits every unmatched build row once, its
	// probe columns null-padded.
	RightOuter
	// LeftSemi emits each probe row with at least one match, once,
	// without build columns; the probe short-circuits on first match.
	LeftSemi
	// LeftAnti emits each probe row with no match, once, without build
	// columns.
	LeftAnti
)

var joinTypeNames = [...]string{"inner", "left-outer", "right-outer", "semi", "anti"}

func (t JoinType) String() string {
	if int(t) < len(joinTypeNames) {
		return joinTypeNames[t]
	}
	return fmt.Sprintf("JoinType(%d)", uint8(t))
}

// ProbeOnly reports whether output rows carry only the probe tuple
// (semi and anti joins emit no build columns).
func (t JoinType) ProbeOnly() bool { return t == LeftSemi || t == LeftAnti }

// JoinTypes lists every join type, in parse-name order.
func JoinTypes() []JoinType {
	return []JoinType{Inner, LeftOuter, RightOuter, LeftSemi, LeftAnti}
}

// JoinTypeNames lists the accepted ParseJoinType spellings, for usage
// messages.
func JoinTypeNames() string { return strings.Join(joinTypeNames[:], ", ") }

// ParseJoinType parses a join type name; "left-semi" and "left-anti"
// are accepted aliases for "semi" and "anti".
func ParseJoinType(s string) (JoinType, error) {
	switch strings.ToLower(s) {
	case "inner", "":
		return Inner, nil
	case "left-outer", "left":
		return LeftOuter, nil
	case "right-outer", "right":
		return RightOuter, nil
	case "semi", "left-semi":
		return LeftSemi, nil
	case "anti", "left-anti":
		return LeftAnti, nil
	}
	return Inner, fmt.Errorf("unknown join type %q (accepted: %s)", s, JoinTypeNames())
}

// Strategy is the execution strategy Choose selects over. The zero
// value Auto means "let the planner decide", so existing call sites
// that never set a strategy keep their legacy behavior.
type Strategy uint8

const (
	// Auto defers the decision to Choose.
	Auto Strategy = iota
	// StreamHash builds one hash table and streams probe batches
	// through it (the paper's group/pipelined prefetched probe).
	StreamHash
	// PartitionedHash radix-partitions both sides and joins the pairs
	// on the morsel worker pool; required when the build side exceeds
	// the admitted memory window and fastest once it exceeds the cache.
	PartitionedHash
)

var strategyNames = [...]string{"auto", "stream", "partitioned"}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// StrategyNames lists the accepted ParseStrategy spellings.
func StrategyNames() string { return strings.Join(strategyNames[:], ", ") }

// ParseStrategy parses a strategy name.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "auto", "":
		return Auto, nil
	case "stream", "streaming", "hash":
		return StreamHash, nil
	case "partitioned", "radix", "morsel":
		return PartitionedHash, nil
	}
	return Auto, fmt.Errorf("unknown strategy %q (accepted: %s)", s, StrategyNames())
}

// Stats are the planner's inputs: the cardinalities and widths of both
// sides and the build side's resident hash-join footprint in bytes
// (computed by the caller, e.g. native.BuildFootprint).
type Stats struct {
	BuildRows  int
	ProbeRows  int
	BuildWidth int
	ProbeWidth int
	// BuildFootprint is the bytes a hash join needs resident for the
	// build side: rows, row headers, table directory.
	BuildFootprint int
}

// DefaultPartitionCrossoverBytes is the build-side footprint above which
// radix-partitioning the pair beats one streaming probe: the measured
// point where the build side falls out of the cache and partitioned
// probes win despite the extra scatter pass. 448 KiB is the footprint
// of the smallest swept pair the partitioned join won on the August
// 2026 one-CPU reference host (it won every larger one too), pinned
// from the calibration benchmark (BenchmarkJoinCrossover).
// EXPERIMENTS.md ("Planner crossover calibration") tables what the
// benchmark measures on the current host next to this pin.
const DefaultPartitionCrossoverBytes = 448 << 10

// maxPlannedFanout caps the fan-out Choose derives, matching the
// native partitioner's practical radix width.
const maxPlannedFanout = 256

// Decision reports a strategy choice and the inputs that produced it,
// the payload of the EXPLAIN surfaces (hjquery -explain, hjserve
// explain=1, PipelineResult.Plan).
type Decision struct {
	Strategy Strategy
	JoinType JoinType
	// Fanout is the partition fan-out to run with: 1 for StreamHash,
	// >= 2 for PartitionedHash.
	Fanout int
	// Budget is the admitted memory window the decision was made under
	// (0 = unbudgeted).
	Budget int
	// Stats echoes the planner inputs.
	Stats Stats
	// Reason is a one-line human-readable justification.
	Reason string
}

// Explain formats the decision and its inputs as one line, the common
// form all EXPLAIN surfaces print.
func (d Decision) Explain() string {
	return fmt.Sprintf("strategy=%v join_type=%v fanout=%d build_rows=%d probe_rows=%d build_bytes=%d budget=%d reason=%q",
		d.Strategy, d.JoinType, d.Fanout, d.Stats.BuildRows, d.Stats.ProbeRows,
		d.Stats.BuildFootprint, d.Budget, d.Reason)
}

// Choose picks the execution strategy for one join: partitioned hash
// when the build side overflows the budget or the partition crossover,
// and the streaming hash probe otherwise.
func Choose(st Stats, jt JoinType, budget int) Decision {
	d := Decision{JoinType: jt, Budget: budget, Stats: st, Fanout: 1}
	if budget > 0 && st.BuildFootprint > budget {
		d.Strategy = PartitionedHash
		d.Fanout = fanoutFor(st.BuildFootprint, budget)
		d.Reason = fmt.Sprintf("build footprint %d B exceeds budget %d B", st.BuildFootprint, budget)
		return d
	}
	if st.BuildFootprint > DefaultPartitionCrossoverBytes {
		d.Strategy = PartitionedHash
		d.Fanout = fanoutFor(st.BuildFootprint, DefaultPartitionCrossoverBytes)
		d.Reason = fmt.Sprintf("build footprint %d B exceeds partition crossover %d B",
			st.BuildFootprint, DefaultPartitionCrossoverBytes)
		return d
	}

	d.Strategy = StreamHash
	d.Reason = fmt.Sprintf("build fits resident (%d B)", st.BuildFootprint)
	return d
}

// Request is everything a front end knows when it asks for a strategy:
// Choose's inputs plus the facts that can override its pick.
type Request struct {
	Stats    Stats
	JoinType JoinType
	Budget   int

	// Forced is the strategy the caller demands; Auto accepts Choose's.
	Forced Strategy
	// PinnedFanout is a fan-out the caller fixed. A value above 1 is the
	// width of every partitioned decision, forced or chosen, and under
	// Auto on the native backend it pins the partitioned strategy. A
	// caller whose fan-out yields to the planner under Auto passes it
	// only alongside a forced strategy.
	PinnedFanout int
	// Sim: the backend is the simulator, which runs single-table joins
	// only. Prebuilt: the build side is an already-built hash table,
	// which only the streaming probe can use.
	Sim      bool
	Prebuilt bool
}

// Resolve is the one place a planner pick meets its overrides: it runs
// Choose, applies at most one strategy override — a forced strategy
// first, then what the build side and the backend can execute, then a
// pinned fan-out — and returns the decision that runs, its Reason naming
// the override and what the planner preferred. A pinned fan-out is the
// width of whatever partitioned decision results; where it replaces the
// planner's own width, the Reason names both.
func Resolve(r Request) Decision {
	d := Choose(r.Stats, r.JoinType, r.Budget)
	preferred, width := d.Strategy, d.Fanout
	switch {
	case r.Forced != Auto && r.Forced != preferred:
		d.Strategy, d.Fanout = r.Forced, 1
		if r.Forced == PartitionedHash {
			d.Fanout = 2
		}
		d.Reason = fmt.Sprintf("forced strategy %v; planner preferred %v", r.Forced, preferred)
	case r.Prebuilt && preferred != StreamHash:
		d.Strategy, d.Fanout = StreamHash, 1
		d.Reason = fmt.Sprintf("prebuilt build side pins the streaming strategy (planner preferred %v)", preferred)
	case r.Sim && preferred == PartitionedHash:
		d.Strategy, d.Fanout = StreamHash, 1
		d.Reason = "sim backend runs single-table joins only (planner preferred partitioned)"
	case !r.Sim && r.Forced == Auto && r.PinnedFanout > 1 && preferred != PartitionedHash:
		d.Strategy, d.Fanout = PartitionedHash, r.PinnedFanout
		d.Reason = fmt.Sprintf("-fanout %d pins the partitioned strategy; planner preferred %v", r.PinnedFanout, preferred)
	}
	if d.Strategy == PartitionedHash && r.PinnedFanout > 1 && r.PinnedFanout != d.Fanout {
		if preferred == PartitionedHash {
			d.Reason += fmt.Sprintf("; pinned fanout %d replaces the planner's fanout %d", r.PinnedFanout, width)
		}
		d.Fanout = r.PinnedFanout
	}
	return d
}

// fanoutFor returns the smallest power-of-two fan-out (>= 2, capped)
// that brings an average partition of a need-byte build side under
// per bytes, in divide form to avoid overflow.
func fanoutFor(need, per int) int {
	f := 2
	for f < maxPlannedFanout {
		q := need / f
		if need%f != 0 {
			q++
		}
		if q <= per {
			break
		}
		f <<= 1
	}
	return f
}
