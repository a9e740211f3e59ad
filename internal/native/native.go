// Package native is the repository's second execution backend: it runs
// the paper's hash join schemes — baseline, group prefetching (section
// 4), and software-pipelined prefetching (section 5) — directly on real
// memory with real wall-clock timing, instead of under the cycle-level
// simulator in internal/memsim.
//
// The two backends share the internal/storage slotted-page layout and
// the internal/hash hash codes memoized in partition slots, so for the
// same seeded workload they are output-compatible: identical NOutput and
// KeySum. What differs is what "time" means — the simulator charges
// cycles against a modeled hierarchy; this package lets the actual CPU,
// caches, and memory bus of the host produce the stalls the paper's
// techniques are designed to hide.
//
// The engine has three phases:
//
//  1. Partition: both relations are flattened into compact 16-byte
//     entries (hash code, join key, tuple address) and radix-partitioned
//     on the low bits of the memoized hash code — the GRACE fan-out
//     (Config.Fanout, which the planner sizes so a build partition plus
//     its hash table fits the memory budget, or the cache for the
//     paper's section 7.5 comparator; a pair still over Config.MemBudget
//     is split recursively). A pair of relations big enough is
//     partitioned on the workers, page range by page range
//     (Joiner.partition, morsel.go).
//  2. Build: each build partition's tuples are serialized once into
//     self-contained rows, chained per hash code from an open-addressed
//     directory of tagged slots (RowTable, rowtable.go).
//  3. Probe: the per-tuple dependence chain (directory slot -> row
//     chain, key and payload in-row) is restructured exactly as the paper's
//     sections 4-5 do — strip-mined G-tuple groups or a D-distance
//     software pipeline — issuing real PREFETCHT0 instructions on amd64
//     (pure-Go no-op fallback elsewhere; see prefetch_amd64.s). The
//     streaming join (stream.go) has no partition phase: its probe
//     draws tuples straight from the probe relation's pages.
//
// Partition pairs are joined under morsel-driven parallelism: a worker
// pool claims pairs from a shared atomic queue, so a skewed partition
// occupies one worker while the others drain the rest — unlike the
// round-robin assignment of internal/core.JoinPartitionsParallel, whose
// skew pathology is documented (and tested) there.
package native

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// Scheme selects a probe/build loop restructuring. The values mirror the
// simulator's core.Scheme for the three schemes that have a native
// meaning; simple prefetching (whole-page prefetch after a disk read)
// has no native analog beyond the hardware's own next-line prefetcher
// and is treated as Baseline by the engine.
type Scheme int

const (
	// Baseline processes one tuple's full dependence chain at a time.
	Baseline Scheme = iota
	// Group strip-mines the loop into G-tuple groups processed in
	// stages, prefetching each stage's references one stage ahead.
	Group
	// Pipelined runs stage s of tuple i-s*D in iteration i, keeping the
	// prefetch pipeline full across the whole input.
	Pipelined
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case Group:
		return "group"
	case Pipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme maps a command-line name to a Scheme. It reports ok=false
// for unknown names; Schemes lists the accepted values.
func ParseScheme(name string) (Scheme, bool) {
	switch name {
	case "baseline":
		return Baseline, true
	case "group":
		return Group, true
	case "pipelined":
		return Pipelined, true
	}
	return 0, false
}

// Config tunes a native join. The zero value runs Baseline over one
// partition pair with the native default parameters and one worker per
// CPU.
type Config struct {
	Scheme Scheme

	// JoinType selects the join's match semantics (inner, left/right
	// outer, left semi/anti); the zero value is plan.Inner, the legacy
	// behavior. The probe relation is the join's left input. See
	// jointype.go for the emission contract each type imposes on sinks.
	JoinType plan.JoinType

	// G is the group size for Scheme Group; 0 selects DefaultG. The
	// native optimum is bounded by the CPU's miss-handling parallelism
	// (~10-16 outstanding line fills), not by the paper's Theorem 1.
	G int
	// D is the prefetch distance for Scheme Pipelined; 0 selects
	// DefaultD.
	D int

	// Fanout is the partition count (rounded up to a power of two); 1,
	// or anything below, joins the relations as one pair — the paper's
	// join-phase experiment setup. The Joiner derives none: its callers
	// name the fan-out plan.Resolve or plan.Choose decided.
	Fanout int

	// MemBudget is the GRACE memory budget in bytes: a build partition's
	// entries plus its hash table must fit. 0 defaults to 256 MB, which
	// keeps workloads up to tens of millions of tuples at fan-out 1 so
	// the probe loops face real cache misses, as in the paper's join
	// phase. Set Fanout high, or the budget low, to reproduce
	// cache-sized partitioning, the section 7.5 comparator: an oversized
	// pair is split recursively under the budget.
	MemBudget int

	// Workers bounds the morsel worker pool; 0 means GOMAXPROCS. The
	// pool never exceeds the partition count.
	Workers int

	// Pool, when non-nil, executes the morsel phase on a shared worker
	// pool instead of per-join goroutines — the multi-tenant scheduler's
	// hook. Workers then bounds this join's concurrent slots within the
	// shared pool, not a goroutine count.
	Pool Pool

	// Tenant and Weight identify the owning query for a shared Pool's
	// weighted round-robin interleaving. Ignored without a Pool.
	Tenant string
	Weight int

	// Arena, when non-nil, is the scratch arena for the join's own
	// allocations (the spill tier's page pool). nil uses the build
	// relation's arena — correct when one query owns that arena, wrong
	// under multi-tenancy, where scratch must come from the query's
	// carved window so one tenant's spill cannot eat a neighbor's budget.
	Arena *arena.Arena

	// SpillDir is the parent directory for the out-of-core tier's temp
	// files; "" means the OS temp directory. A hash code whose rows alone
	// exceed MemBudget (irreducible duplicate-code skew) is spilled there
	// and joined in budget-sized build chunks instead of failing.
	SpillDir string
	// SpillWorkers is the write-behind worker count for spilled
	// partitions; <1 selects spill.DefaultWorkers.
	SpillWorkers int
	// SpillPageSize overrides the spill tier's page size in bytes; 0
	// selects spill.DefaultPageSize. The chunking arithmetic derives
	// from the same value, so shrinking pages never over-pins the
	// budget.
	SpillPageSize int
	// NoSpill disables the disk tier: an over-budget pair is then
	// re-partitioned in memory, and an irreducible one fails with
	// *BudgetError.
	NoSpill bool

	// BudgetNow, when non-nil, is sampled before each pair claim and may
	// shrink the effective budget below MemBudget — the multi-tenant
	// pressure signal. A planned-resident pair whose footprint no longer
	// fits is demoted to the out-of-core path without restarting the
	// join; pairs already being joined are never interrupted. See
	// hybrid.go for how over-budget pairs are joined.
	BudgetNow func() int

	// Ctx cancels the join cooperatively: morsel workers check it before
	// claiming each partition pair and the spill tier checks it at page
	// boundaries, so a cancelled join stops within one pair claim or one
	// spill page of the signal and returns a *CancelError with partial
	// progress. nil means context.Background (never cancelled).
	Ctx context.Context
}

// Native default tuning parameters. Chosen empirically for modern amd64
// parts: G covers the ~dozen simultaneous line fills the memory system
// sustains; D spaces a prefetch far enough ahead of its visit to cover a
// DRAM access across 3 pipeline stages.
const (
	DefaultG = 24
	DefaultD = 8
)

func (c Config) normalized() Config {
	c.Fanout = nextPow2(max(c.Fanout, 1))
	if c.G < 1 {
		c.G = DefaultG
	}
	if c.D < 1 {
		c.D = DefaultD
	}
	if c.MemBudget <= 0 {
		c.MemBudget = 256 << 20
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// Report is the run report of one native join: what the memory tiers —
// the out-of-core spill tier and the hybrid policy — did, beyond the
// output itself. It is defined here, where it is produced, and embedded
// by value in every result that carries it (Result, engine.Report and
// through it the pipeline results of the front ends), so a counter
// added here reaches every surface with no copy to extend.
type Report struct {
	// SpilledPartitions counts the partition pairs the out-of-core tier
	// joined from disk; 0 means the join stayed in memory. The byte
	// totals cover the spill tier's file I/O — reads can exceed writes
	// because the probe partition is re-read once per build chunk.
	// WriteStall is encode-side waiting the write-behind workers failed
	// to hide, ReadStall the probe-side waiting read-ahead failed to hide.
	SpilledPartitions int
	SpillBytesWritten int64
	SpillBytesRead    int64
	SpillWriteStall   time.Duration
	SpillReadStall    time.Duration

	// SpillFailovers counts spill directories declared failed mid-join
	// (writes moved to the next healthy directory); SpillRebuilds counts
	// partitions whose on-disk data was rebuilt from the in-memory
	// source after a failed or corrupt file. Both zero on a healthy run.
	SpillFailovers int64
	SpillRebuilds  int64

	// Hybrid-policy pair accounting of a partitioned join (all zero for
	// a streaming one). ResidentPartitions counts non-empty pairs whose
	// measured footprint fit the effective budget at claim time and
	// joined fully in memory;
	// DemotedPartitions counts planned-resident pairs sent down the
	// victim path because BudgetNow had shrunk below their footprint by
	// claim time, and BytesDemoted sums their footprints.
	ResidentPartitions int
	DemotedPartitions  int
	BytesDemoted       int64
}

// Result reports a native join with its wall-clock phase breakdown.
type Result struct {
	NOutput int    // output tuples (matches) produced
	KeySum  uint64 // sum of build keys over all outputs, as in the simulator

	NPartitions int // partition pairs joined
	Workers     int // worker slots that served the morsel queue

	// PairsJoined counts the partition-pair morsels actually executed:
	// equal to NPartitions on success, fewer when an error or
	// cancellation cut the join short. The multi-tenant accounting
	// surfaces it as "morsels executed".
	PairsJoined int

	// RecursionDepth is the deepest recursive re-partitioning any pair
	// needed to fit MemBudget; 0 means every first-level pair fit.
	RecursionDepth int

	Report

	// VictimPartitions counts the pairs the hybrid policy routed to its
	// victim path — over the effective budget at claim time. Parts of a
	// victim may still join resident; SpilledPartitions counts the pairs
	// that actually reached the disk tier.
	VictimPartitions int

	PartitionTime time.Duration // flatten + radix scatter, both relations
	JoinTime      time.Duration // all build+probe pairs (wall clock)
	Elapsed       time.Duration // end-to-end
}

// Breakdown formats the wall-clock phase decomposition.
func (r Result) Breakdown() string {
	return fmt.Sprintf("partition %.2fms / join %.2fms (%d partitions, %d workers)",
		float64(r.PartitionTime.Microseconds())/1e3,
		float64(r.JoinTime.Microseconds())/1e3,
		r.NPartitions, r.Workers)
}

// BudgetError reports a partition pair that could not be brought under
// the memory budget: recursive re-partitioning either hit its depth
// bound or ran out of hash bits (heavy key skew — identical codes cannot
// be split further). With the spill tier enabled (the default) such a
// pair is joined out of core instead; this error now occurs only under
// Config.NoSpill or for schemas slotted pages cannot round-trip.
type BudgetError struct {
	Budget int // configured MemBudget, bytes
	Need   int // estimated footprint of the irreducible pair
	// Depth is the deepest recursion level the failing pair's join
	// reached — including sibling sub-pairs that split successfully
	// before the irreducible one gave up.
	Depth int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf(
		"native: partition pair needs ~%d bytes, budget %d: re-partitioning gave up at depth %d (skewed or infeasible budget)",
		e.Need, e.Budget, e.Depth)
}

func (e *BudgetError) Unwrap() error { return ErrOverBudget }

// Joiner is a resident join executor: it owns the partition scratch,
// hash tables, and per-worker state, and recycles them across Join
// calls. A process that joins repeatedly (benchmark repetitions, a
// query loop) should reuse one Joiner — allocating the tens of
// megabytes of entries and table afresh per join churns the garbage
// collector and, worse, pays the kernel's fresh-page population cost on
// every first touch, which can triple join times on virtualized hosts.
// A Joiner is not safe for concurrent use; its internal morsel workers
// are the intended parallelism.
type Joiner struct {
	bp, pp  partitions
	workers []*pairJoiner

	// plan orders the morsel queue resident-first and carries the
	// measured per-pair footprints the demotion check consults.
	plan hybridPlan

	// sinkFor, when set, provides each morsel worker with a match sink
	// (see JoinStream). Sinks are per-worker, so they need no locking.
	sinkFor func(worker int) func(build []byte, probeRef uint64)

	// spillSt coordinates the out-of-core tier for the Join call in
	// flight; nil between calls and when spilling is disabled.
	spillSt *spillState
}

// NewJoiner returns an empty Joiner; buffers grow on first use.
func NewJoiner() *Joiner { return &Joiner{} }

// Join runs a native hash join of build and probe. The relations must
// share one arena's bytes: one arena, or windows carved from it — a
// service query materializes a filtered build side into its own window
// beside the shared probe relation.
// A pair that exceeds cfg.MemBudget is a victim of the adaptive hybrid
// policy (see hybrid.go): its irreducible duplicate-code skew is joined
// out of core through internal/spill and the rest re-partitioned
// recursively, so Join fails with a *BudgetError only under
// cfg.NoSpill. Its tables and spilled build pages keep whole tuples.
func (jn *Joiner) Join(build, probe *storage.Relation, cfg Config) (Result, error) {
	return jn.join(build, probe, cfg, build.Schema.FixedWidth())
}

// join is Join whose pair tables and spilled build pages keep the first
// rowWidth bytes of each build tuple; every budget decision still
// charges the whole tuple.
func (jn *Joiner) join(build, probe *storage.Relation, cfg Config, rowWidth int) (Result, error) {
	if bd, pd := build.Arena().Data(), probe.Arena().Data(); len(bd) != len(pd) || len(bd) > 0 && &bd[0] != &pd[0] {
		panic("native: build and probe relations use different arenas")
	}
	if build.Schema.HasVar() || build.Schema.FixedWidth() < 4 {
		panic("native: row storage requires a fixed-width build schema with a leading uint32 key")
	}
	cfg = cfg.normalized()
	data := build.Arena().Data()
	width := build.Schema.FixedWidth()

	start := time.Now()
	if err := cfg.Ctx.Err(); err != nil {
		return Result{}, asCancel(err, 0, 0, 0)
	}

	sp := newSpillState(build, probe, cfg, cfg.morselSlots(cfg.Fanout), rowWidth)
	jn.spillSt = sp
	// The deferred finish covers the panic path (arena exhaustion
	// unwinding through a sink): temp files are removed before the panic
	// crosses the Joiner boundary. On the normal path the explicit
	// finish below already closed the Manager, and this one is a no-op.
	defer func() {
		jn.spillSt = nil
		sp.finish()
	}()

	err := jn.partition(build, probe, cfg.Fanout, cfg)
	if err == nil {
		jn.plan.reset(&jn.bp, width, cfg.MemBudget)
	}
	partDone := time.Now()
	var r Result
	if err == nil {
		r, err = jn.joinPairs(data, width, rowWidth, cfg)
	} else {
		err = asCancel(err, 0, cfg.Fanout, 0)
	}
	spStats, spPairs, spErr := sp.finish()
	if err == nil {
		err = spErr
	}
	if err != nil {
		var ce *CancelError
		if errors.As(err, &ce) {
			ce.Elapsed = time.Since(start)
		}
		return Result{}, err
	}
	end := time.Now()

	r.NPartitions = jn.bp.fanout()
	r.SpilledPartitions = spPairs
	r.SpillBytesWritten = spStats.BytesWritten
	r.SpillBytesRead = spStats.BytesRead
	r.SpillWriteStall = spStats.WriteStall
	r.SpillReadStall = spStats.ReadStall
	r.SpillFailovers = spStats.Failovers
	r.SpillRebuilds = spStats.Rebuilds
	r.PartitionTime = partDone.Sub(start)
	r.JoinTime = end.Sub(partDone)
	r.Elapsed = end.Sub(start)
	return r, nil
}

// Join is the convenience one-shot form: a throwaway Joiner. Prefer a
// reused Joiner when joining more than once.
func Join(build, probe *storage.Relation, cfg Config) (Result, error) {
	return NewJoiner().Join(build, probe, cfg)
}

// JoinStream is Join with match emission: sinkFor(w) returns worker w's
// sink, which receives every validated match that worker produces — the
// build row's first width bytes (valid only for the duration of the
// call) and the probe tuple's address. width, from 4 (the key) to the
// schema's fixed width, is all of each build tuple the sinks read and
// the pair tables and spilled build pages keep; the budget still
// charges whole tuples. Each worker calls only its own sink, so sinks
// need no synchronization among themselves;
// JoinStream returns only after all workers (and therefore all sink
// calls) have finished, and keeps neither the sinks nor the join's
// bytes, so a Joiner kept for reuse pins nothing the sinks reach.
func (jn *Joiner) JoinStream(build, probe *storage.Relation, cfg Config, width int, sinkFor func(worker int) func(build []byte, probeRef uint64)) (Result, error) {
	jn.sinkFor = sinkFor
	defer func() {
		jn.sinkFor = nil
		for _, j := range jn.workers {
			j.sink, j.data, j.spill = nil, nil, nil
		}
	}()
	return jn.join(build, probe, cfg, width)
}

// rowFootprint is the resident bytes one build row costs during its
// pair's join: its partition entry, its serialized row (header + key +
// payload), and at most 16 bytes of directory — the directory holds
// nextpow2(2n) 4-byte slots for n rows, between 8 and 16 bytes a row.
// Every budget decision divides or multiplies by this one unit.
func rowFootprint(width int) int { return entrySize + rowHdrSize + width + 16 }

// pairFootprint estimates the resident bytes a build partition of n
// tuples of width serialized bytes needs during its join. The planner
// (through BuildFootprint) and the recursive re-partitioner share this
// estimate, so the initial fan-out and the degradation path agree on
// what "fits" means.
func pairFootprint(nBuild, width int) int { return nBuild * rowFootprint(width) }

// BuildFootprint estimates the resident bytes a build side of nBuild
// tuples of width serialized bytes needs while being joined: entries
// plus row table. The batch engine's join fills the planner's stats
// with it (plan.Stats.BuildFootprint), from which plan.Resolve decides
// whether a streaming (single-table) join fits a memory budget and the
// cache or runs partitioned, and at what fan-out.
func BuildFootprint(nBuild, width int) int { return pairFootprint(nBuild, width) }
