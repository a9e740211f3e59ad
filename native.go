package hashjoin

import (
	"context"
	"fmt"

	"hashjoin/internal/engine"
	"hashjoin/internal/native"
)

// NativeResult reports a native join: the same functional outputs as the
// simulated Result (NOutput, KeySum) with a wall-clock phase breakdown
// (PartitionTime, JoinTime, Elapsed; Breakdown formats it) in place of
// simulated cycles, the partition and worker counts, RecursionDepth —
// the deepest recursive re-partitioning any pair needed to fit the
// memory budget — and the embedded run report: SpilledPartitions counts
// partition pairs joined out of core (0: everything fit the budget in
// memory), the byte totals cover the spill tier's file I/O, and the
// stalls are the latency its write-behind and read-ahead overlap failed
// to hide.
type NativeResult = native.Result

// NativeOption configures a native join.
type NativeOption func(*native.Config)

// WithNativeScheme selects the probe/build loop restructuring: Baseline,
// Group, or Pipelined. Simple is accepted and runs as Baseline — its
// whole-page prefetch has no native analog beyond the hardware's own
// next-line prefetcher. Combined is partition-phase-only and rejected:
// the engine's mapper would quietly run it as Baseline, so the check
// lives here, where the caller named it.
func WithNativeScheme(s Scheme) NativeOption {
	return func(c *native.Config) {
		if s < Baseline || s >= Combined {
			panic(fmt.Sprintf("hashjoin: scheme %v has no native form (Combined applies to the simulated partition phase only)", s))
		}
		c.Scheme = engine.NativeScheme(s)
	}
}

// WithNativeParams tunes the group size G and prefetch distance D. Zero
// fields keep the native defaults (native.DefaultG, native.DefaultD),
// which are bounded by the host's memory-level parallelism rather than
// the paper's simulated Theorem 1/2 optima.
func WithNativeParams(p Params) NativeOption {
	return func(c *native.Config) { c.G, c.D = p.G, p.D }
}

// WithNativeWorkers bounds the morsel worker pool (default GOMAXPROCS).
func WithNativeWorkers(n int) NativeOption {
	return func(c *native.Config) { c.Workers = n }
}

// WithNativeFanout forces the partition fan-out (rounded up to a power
// of two). 1 joins the relations as a single pair — the paper's
// join-phase experiment setup, where prefetching has the most to hide.
func WithNativeFanout(f int) NativeOption {
	return func(c *native.Config) { c.Fanout = f }
}

// WithNativeMemBudget sets the GRACE memory budget in bytes that derives
// the fan-out (default 256 MB). Setting it near the cache size turns the
// partitioner into the paper's section 7.5 cache-partitioning
// comparator. A pair no partitioning can bring under budget is joined
// out of core through disk-backed spill partitions.
func WithNativeMemBudget(bytes int) NativeOption {
	return func(c *native.Config) { c.MemBudget = bytes }
}

// WithNativeSpillDir sets the parent directory for the out-of-core spill
// area (default: the OS temp directory). The spill tier creates its own
// subdirectory per join and removes it afterwards.
func WithNativeSpillDir(dir string) NativeOption {
	return func(c *native.Config) { c.SpillDir = dir }
}

// WithNativeSpillWorkers sets the spill tier's write-behind worker count
// (default: the spill subsystem's own default).
func WithNativeSpillWorkers(n int) NativeOption {
	return func(c *native.Config) { c.SpillWorkers = n }
}

// WithNativeNoSpill disables the out-of-core tier: a partition pair
// still over budget at maximum recursion depth makes Join return a
// *native.BudgetError instead of spilling to disk.
func WithNativeNoSpill() NativeOption {
	return func(c *native.Config) { c.NoSpill = true }
}

// NativeJoiner is a resident native executor: it keeps the partition
// scratch, hash tables, and worker state of internal/native.Joiner
// alive between joins, so repeated joins run on recycled memory instead
// of regrowing the heap each call. Use one per goroutine that joins in
// a loop (benchmarks, a query server); for one-shot joins NativeJoin is
// equivalent.
type NativeJoiner struct {
	jn *native.Joiner
}

// NewNativeJoiner returns an executor with empty buffers; they grow on
// first use and are recycled afterwards.
func NewNativeJoiner() *NativeJoiner {
	return &NativeJoiner{jn: native.NewJoiner()}
}

// Join joins two relations directly on the host hardware — real memory,
// real caches, real PREFETCHT0 on amd64 — instead of under the cycle
// simulator. The relations must belong to the same Env. For the same
// workload, native Join and Env.Join produce identical NOutput and
// KeySum for every scheme; the native result's times are wall clock.
// A partition pair over the memory budget is re-partitioned recursively,
// and a pair no partitioning can shrink (heavy key skew) is joined out
// of core through disk-backed spill partitions; Join returns a
// *native.BudgetError only under WithNativeNoSpill.
func (e *NativeJoiner) Join(build, probe *Relation, opts ...NativeOption) (NativeResult, error) {
	return e.JoinContext(context.Background(), build, probe, opts...)
}

// JoinContext is Join under a context: morsel workers check it before
// claiming each partition pair and the spill tier checks it at page
// boundaries, so cancellation or deadline expiry stops the join within
// one pair claim or spill page. A cancelled join returns a *CancelError
// that matches both ErrCancelled and the context's own error, and
// reports how many partition pairs had completed.
func (e *NativeJoiner) JoinContext(ctx context.Context, build, probe *Relation, opts ...NativeOption) (NativeResult, error) {
	if build.env == nil || build.env != probe.env {
		panic("hashjoin: NativeJoin relations must share an Env")
	}
	cfg := native.Config{Scheme: native.Group, Ctx: ctx}
	for _, o := range opts {
		o(&cfg)
	}
	return e.jn.Join(build.rel, probe.rel, cfg)
}

// NativeJoin is the one-shot form of NativeJoiner.Join.
func NativeJoin(build, probe *Relation, opts ...NativeOption) (NativeResult, error) {
	return NewNativeJoiner().Join(build, probe, opts...)
}

// NativeHasPrefetch reports whether this build issues real PREFETCHT0
// instructions (amd64 without the purego tag) or the pure-Go no-op
// fallback.
func NativeHasPrefetch() bool { return native.HavePrefetch }
