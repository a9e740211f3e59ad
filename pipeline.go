package hashjoin

// The public face of the batch-oriented operator engine: one logical
// pipeline — scan, optional build-side filter, hash join, optional
// hash aggregation — that runs unchanged on either execution backend.
// WithEngine selects the backend; everything else about the plan, and
// the logical result, is backend-neutral. This replaces the former
// split where simulated joins and native joins were separate APIs with
// no way to compose either into a larger query.

import (
	"context"
	"fmt"
	"time"

	"hashjoin/internal/engine"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/sched"
)

// Engine selects the execution backend for RunPipeline.
type Engine = engine.Backend

const (
	// EngineSim runs the pipeline under the cycle-level simulator; the
	// result carries the simulated cycle breakdown.
	EngineSim = engine.Sim
	// EngineNative runs the pipeline on the host hardware with real
	// prefetches; the result carries wall-clock time.
	EngineNative = engine.Native
)

// PipelineOption configures RunPipeline.
type PipelineOption func(*pipelineConfig)

type pipelineConfig struct {
	engine    Engine
	scheme    Scheme
	params    Params
	fanout    int
	workers   int
	memBudget int

	spillDir      string
	spillWorkers  int
	spillPageSize int
	noSpill       bool

	filterLo, filterHi uint32
	hasFilter          bool

	aggValueOff int
	aggGroups   int
	hasAgg      bool

	tenant  string
	weight  int
	planned uint64

	build *BuildSide

	joinType  plan.JoinType
	strategy  plan.Strategy
	fanoutSet bool // WithPipelineFanout given
}

// WithEngine selects the execution backend (default EngineSim).
func WithEngine(e Engine) PipelineOption {
	return func(c *pipelineConfig) { c.engine = e }
}

// WithPipelineScheme selects the prefetching scheme for the pipeline's
// join and aggregation (default Group).
func WithPipelineScheme(s Scheme) PipelineOption {
	return func(c *pipelineConfig) { c.scheme = s }
}

// WithPipelineParams tunes the group size G — which is also the
// operator batch size — and prefetch distance D. Zero fields keep the
// backend defaults (the merge happens at the engine boundary, so a
// partially filled Params never reaches an operator loop as a zero);
// negative fields make RunPipeline return an error.
func WithPipelineParams(p Params) PipelineOption {
	return func(c *pipelineConfig) { c.params = p }
}

// WithBuildFilter keeps only build tuples whose key lies in [lo, hi]
// before the join, which decides its strategy over the build as
// filtered (PipelineResult.Plan's stats count the tuples kept).
func WithBuildFilter(lo, hi uint32) PipelineOption {
	return func(c *pipelineConfig) { c.filterLo, c.filterHi, c.hasFilter = lo, hi, true }
}

// WithAggregation appends a group-by on the join key: COUNT(*) and
// SUM of the 4-byte value at valueOff within each joined row (build
// bytes first, then probe bytes). expectedGroups sizes the hash table.
func WithAggregation(valueOff, expectedGroups int) PipelineOption {
	return func(c *pipelineConfig) { c.aggValueOff, c.aggGroups, c.hasAgg = valueOff, expectedGroups, true }
}

// WithPipelineFanout names the native join's fan-out: 1 (the default,
// unless WithStrategy is given) streams the probe side through one
// resident hash table, built and probed by the pipeline's workers
// together (the probe relation's page ranges are the morsels they
// share); larger values radix-partition both inputs at the next power
// of two, which PipelineResult.Plan reports as JoinFanout does, and the
// workers share the partition pairs; 0 names none and leaves the
// choice to the join's planner. A named fan-out holds beside any
// WithStrategy, by the rule WithStrategy states. Either way the order
// of the output rows is unspecified. The simulator backend runs every
// join over one table.
func WithPipelineFanout(n int) PipelineOption {
	return func(c *pipelineConfig) { c.fanout, c.fanoutSet = n, true }
}

// WithPipelineWorkers bounds the native join's workers (default
// GOMAXPROCS) at every fan-out: at fanout 1 n probers share the probe
// relation's morsels over a table built on n slots, and at larger
// fan-outs n pair joiners run. On a service Env it bounds the run's
// slots in the shared pool instead.
func WithPipelineWorkers(n int) PipelineOption {
	return func(c *pipelineConfig) { c.workers = n }
}

// WithPipelineMemBudget bounds the resident footprint of the native
// join's build side in bytes. The join weighs it against the build it
// reads (filtered, under WithBuildFilter): a build over the budget runs
// partitioned (at a named fan-out 1, as one pair split recursively),
// and the pairs run under the adaptive hybrid policy: the pairs that
// fit run first, each hash code too big to fit on its own (heavy key
// skew) is joined out of core through disk-backed spill partitions, and
// the rest of an oversized pair is re-partitioned recursively — the
// GRACE answer to a partition that does not fit memory. On a service
// Env the grant's advisory budget can lower the budget mid-join,
// demoting pairs that have not started. 0 (the default) means
// unbudgeted.
func WithPipelineMemBudget(bytes int) PipelineOption {
	return func(c *pipelineConfig) { c.memBudget = bytes }
}

// WithPipelineSpillDir sets the parent directory for the native join's
// out-of-core spill area (default: the OS temp directory). The spill
// tier creates its own subdirectory per run and removes it afterwards.
func WithPipelineSpillDir(dir string) PipelineOption {
	return func(c *pipelineConfig) { c.spillDir = dir }
}

// WithPipelineSpillWorkers sets the spill tier's write-behind worker
// count (default: the spill subsystem's own default). Negative values
// make RunPipeline return an error.
func WithPipelineSpillWorkers(n int) PipelineOption {
	return func(c *pipelineConfig) { c.spillWorkers = n }
}

// WithPipelineNoSpill disables the out-of-core tier: a partition pair
// still over the memory budget at maximum recursion depth makes
// RunPipeline return a *native.BudgetError instead of spilling to disk.
func WithPipelineNoSpill() PipelineOption {
	return func(c *pipelineConfig) { c.noSpill = true }
}

// WithPipelineSpillPageSize overrides the spill tier's page size in
// bytes (default: the spill subsystem's own default). Benchmarks use
// smaller pages to reduce page-rounding noise in I/O volumes; the value
// must satisfy the spill subsystem's bounds or the run fails when the
// spill tier engages.
func WithPipelineSpillPageSize(bytes int) PipelineOption {
	return func(c *pipelineConfig) { c.spillPageSize = bytes }
}

// WithPipelineHybrid does nothing: every native partitioned join runs
// the adaptive hybrid policy (see WithPipelineMemBudget).
//
// Deprecated: the hybrid policy is always on; drop the option.
func WithPipelineHybrid() PipelineOption {
	return func(*pipelineConfig) {}
}

// WithBuildSide supplies a pre-built hash table (PrepareBuildSide) as
// the join's build side, skipping the run's build phase entirely: the
// probe stream runs over the shared, immutable table through private
// probe scratch, so any number of concurrent runs may pass the same
// handle. Native engine, streaming strategy only — RunPipeline returns
// an error if the engine is simulated, a build filter is present (the
// table was built unfiltered), or the options name a partitioned run
// (a fan-out above 1 or StrategyPartitioned) — and the build relation
// must be the one the handle was prepared over. Any budget is the
// handle owner's: the run probes the table whatever its footprint.
func WithBuildSide(b *BuildSide) PipelineOption {
	return func(c *pipelineConfig) { c.build = b }
}

// WithTenant labels the run for the service Env's admission and
// fairness accounting (counters, shed errors, pool interleaving).
func WithTenant(name string) PipelineOption {
	return func(c *pipelineConfig) { c.tenant = name }
}

// WithTenantWeight biases the shared worker pool's round-robin toward
// this run's morsels: a weight-3 tenant claims up to three morsels per
// scheduling round where a weight-1 tenant claims one. Values < 1 mean
// 1. Ignored outside service mode.
func WithTenantWeight(w int) PipelineOption {
	return func(c *pipelineConfig) { c.weight = w }
}

// WithPlannedScratch declares the run's scratch footprint in bytes for
// admission on a service Env: the admitted query runs on a private
// arena window of exactly this size. 0 (the default) estimates the
// footprint from the plan and relations. A run that outgrows its
// window fails alone with an *OOMError; neighbors are unaffected.
func WithPlannedScratch(bytes uint64) PipelineOption {
	return func(c *pipelineConfig) { c.planned = bytes }
}

// PipelineResult reports one pipeline run. NOutput and KeySum describe
// the join's output whether or not aggregation ran (with aggregation
// they are recovered from the groups, which partition the join output).
type PipelineResult struct {
	NOutput int    // join output rows
	KeySum  uint64 // order-independent checksum of output build keys

	// Groups holds the aggregation result, sorted by key, when
	// WithAggregation was given; nil otherwise. Equal workloads produce
	// identical Groups on both engines.
	Groups []GroupStat

	Stats   Stats         // EngineSim: cycle breakdown of this run
	Elapsed time.Duration // EngineNative: wall clock of this run

	// Report is the run report, embedded by value from where it is
	// produced: Plan (the strategy decision the join ran and its inputs;
	// see WithStrategy), JoinFanout (the partition count the native join
	// actually used, 1 for the streaming strategy), JoinRecursionDepth
	// (how deep the budget degradation had to re-partition oversized
	// pairs, 0: none), MorselsExecuted (the morsels the run's workers
	// shared: partition pairs, or at fanout 1 the page ranges the probe
	// relation was cut into), the spill tier's SpilledPartitions,
	// SpillBytesWritten, SpillBytesRead, SpillWriteStall, SpillReadStall,
	// SpillFailovers and SpillRebuilds (all zero when everything fit in
	// memory), and the hybrid policy's ResidentPartitions,
	// DemotedPartitions and BytesDemoted (all zero for a streaming join).
	engine.Report

	// Service-mode accounting: how long admission queued the run and the
	// scratch window it was granted (0 for exclusive/simulated runs).
	// Both zero outside service mode.
	QueueWait     time.Duration
	AdmittedBytes uint64
}

// RunPipeline executes build ⋈ probe — optionally filtered and
// aggregated — as a batch-operator pipeline on the selected engine.
// Both relations must belong to this Env. Batches are sized to the
// prefetch group size G, so operator handoff happens exactly at
// prefetch-group boundaries (the paper's section 5.4 observation).
//
// Per-run scratch (partition buffers, a filtered build side, staged
// aggregation rows) is scoped to the run and reclaimed before
// RunPipeline returns, so a resident Env sustains unlimited runs with
// stable arena usage. Memory exhaustion — the Env's capacity or a
// WithPipelineMemBudget no partitioning can satisfy — surfaces as an
// error with a usage breakdown, never a panic, including from morsel
// worker goroutines.
func (e *Env) RunPipeline(build, probe *Relation, opts ...PipelineOption) (PipelineResult, error) {
	return e.RunPipelineContext(context.Background(), build, probe, opts...)
}

// RunPipelineContext is RunPipeline under a context. Scans check it at
// every batch boundary (both backends), the native morsel join before
// each partition-pair claim, and the spill tier at page boundaries —
// so cancellation or deadline expiry stops the run within one batch or
// page of the event. A cancelled run returns a *CancelError that
// matches both ErrCancelled and the context's own error; the native
// join's cancellation also reports partition-pair progress.
func (e *Env) RunPipelineContext(ctx context.Context, build, probe *Relation, opts ...PipelineOption) (res PipelineResult, err error) {
	if build.env != e || probe.env != e {
		panic("hashjoin: relations belong to a different Env")
	}
	pc := pipelineConfig{engine: EngineSim, scheme: Group, fanout: 1}
	for _, o := range opts {
		o(&pc)
	}
	var cachedBuild *native.BuildSide
	if pc.build != nil {
		switch {
		case pc.build.env != e:
			panic("hashjoin: BuildSide belongs to a different Env")
		case pc.build.rel != build:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide handle was prepared over a different relation")
		case pc.engine != EngineNative:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide requires the native engine")
		case pc.hasFilter:
			return PipelineResult{}, fmt.Errorf("hashjoin: WithBuildSide cannot combine with WithBuildFilter (the table was built unfiltered)")
		}
		cachedBuild = pc.build.bs
	}

	buildNode := engine.Scan(build.rel)
	if pc.hasFilter {
		buildNode = engine.Filter(buildNode, engine.KeyBetween(pc.filterLo, pc.filterHi))
	}
	logical := engine.HashJoinTyped(buildNode, engine.Scan(probe.rel), pc.joinType)
	if pc.hasAgg {
		logical = engine.HashAggregate(logical, pc.aggValueOff, pc.aggGroups)
	}

	// A request that conflicts with itself is refused before it queues;
	// the join resolves the rest over the relations it reads.
	if err := plan.Check(plan.Request{Forced: pc.strategy, Fanout: pc.fanout,
		Sim: pc.engine == EngineSim, Prebuilt: pc.build != nil}); err != nil {
		return PipelineResult{}, fmt.Errorf("hashjoin: %w", err)
	}

	cfg := engine.Config{
		Backend:       pc.engine,
		Mem:           e.mem,
		A:             e.mem.A,
		Scheme:        pc.scheme,
		Params:        pc.params,
		Strategy:      pc.strategy,
		Fanout:        pc.fanout,
		Workers:       pc.workers,
		Tenant:        pc.tenant,
		Weight:        pc.weight,
		MemBudget:     pc.memBudget,
		SpillDir:      pc.spillDir,
		SpillWorkers:  pc.spillWorkers,
		SpillPageSize: pc.spillPageSize,
		NoSpill:       pc.noSpill,
		Build:         cachedBuild,
		Report:        &res.Report,
		Ctx:           ctx,
	}

	// Service mode routes the run through admission. Native runs are
	// granted a private scratch window and the shared worker pool;
	// simulated runs are exclusive tenants (the cycle simulator is
	// single-threaded and they scope scratch on the shared arena).
	if e.svc != nil {
		req := sched.Request{Tenant: pc.tenant, Weight: pc.weight, Exclusive: pc.engine == EngineSim}
		if !req.Exclusive {
			req.Planned = pc.planned
			if req.Planned == 0 {
				// Without the workload's ground truth assume a moderately
				// skewed 8 matches per probe tuple (heavier skew should
				// declare WithPlannedScratch). The build side's row count
				// sizes a filtered build's relation and bounds an
				// aggregate's groups. The admission floor (256 KB) covers
				// the small end. A native plan reads no join row count.
				req.Planned = logical.ScratchBytes(cfg, 8, build.rel.NTuples, 0)
			}
		}
		g, aerr := e.svc.Admit(ctx, req)
		if aerr != nil {
			return PipelineResult{}, aerr
		}
		defer func() { g.Release(err) }()
		cfg.A = g.Arena()
		res.QueueWait = g.QueueWait()
		res.AdmittedBytes = g.Planned()
		if pc.engine == EngineNative {
			cfg.Pool = e.svc.Pool()
			if pc.memBudget > 0 {
				// The grant's advisory budget is the mid-join pressure
				// signal on the join's budget: when neighbors queue, the
				// controller shrinks it and the join demotes unstarted
				// resident pairs. An unbudgeted join has no budget to lower.
				cfg.BudgetNow = g.BudgetNow
			}
		}
	}
	var before Stats
	if pc.engine == EngineSim {
		e.simMu.Lock()
		defer e.simMu.Unlock()
		before = e.mem.S.Stats()
	}
	out, err := engine.Execute(logical, cfg)
	if err != nil {
		return PipelineResult{}, err
	}
	res.NOutput, res.KeySum, res.Groups = out.NOutput, out.KeySum, out.Groups
	switch pc.engine {
	case EngineSim:
		res.Stats = e.mem.S.Stats().Sub(before)
	case EngineNative:
		res.Elapsed = out.Elapsed
	}
	return res, nil
}
