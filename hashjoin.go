// Package hashjoin is a laboratory for cache-conscious hash joins,
// reproducing Chen, Ailamaki, Gibbons and Mowry, "Improving Hash Join
// Performance through Prefetching" (ICDE 2004).
//
// It provides the GRACE hash join — I/O partitioning plus in-memory
// hash-table joins — in four variants: the classic baseline, simple
// prefetching, group prefetching, and software-pipelined prefetching,
// together with the cache-partitioning comparators the paper evaluates
// against. All algorithms execute against a cycle-level memory-hierarchy
// simulator, so every run yields both the real join output and a
// decomposition of execution time into busy cycles, data-cache stalls,
// TLB stalls, and other stalls — the same lens the paper uses.
//
// Quick start:
//
//	env := hashjoin.NewEnv()
//	build := env.NewRelation(100)
//	probe := env.NewRelation(100)
//	build.Append(42, []byte("...payload...")) // etc.
//	res, err := env.Join(build, probe, hashjoin.WithScheme(hashjoin.Group))
//	if err != nil { ... } // arena exhaustion surfaces here, never as a panic
//	fmt.Println(res.NOutput, res.Breakdown())
//
// The experiments of the paper's section 7 are exposed through
// RunExperiment; the cmd/hjbench tool drives them from the command line.
package hashjoin

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/exp"
	jhash "hashjoin/internal/hash"
	"hashjoin/internal/memsim"
	"hashjoin/internal/model"
	"hashjoin/internal/sched"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
	"hashjoin/internal/workload"
)

// Scheme selects a prefetching strategy.
type Scheme = core.Scheme

// Prefetching schemes.
const (
	// Baseline is the unmodified GRACE hash join.
	Baseline = core.SchemeBaseline
	// Simple prefetches whole input pages after each disk read.
	Simple = core.SchemeSimple
	// Group is group prefetching (paper section 4).
	Group = core.SchemeGroup
	// Pipelined is software-pipelined prefetching (paper section 5).
	Pipelined = core.SchemePipelined
	// Combined picks Simple or Group per the partition-phase policy of
	// section 7.4 (partition phase only).
	Combined = core.SchemeCombined
)

// Params are the prefetching tuning knobs: group size G and prefetch
// distance D. The zero value selects the paper's tuned defaults.
type Params = core.Params

// Stats is the simulated execution-time breakdown.
type Stats = memsim.Stats

// Env owns a simulated address space and memory hierarchy. Relations
// built in an Env can be joined and partitioned under simulation.
//
// A plain Env is not safe for concurrent use. WithService turns it
// into a multi-tenant join service: RunPipelineContext calls from any
// number of goroutines are admitted against the arena budget, run on
// private scratch windows with a shared fairly-scheduled worker pool,
// and Join / Partition / Aggregate / Durable serialize as exclusive
// tenants. Stats is then safe to call at any time.
type Env struct {
	mem *vmem.Mem
	cfg memsim.Config

	svc *sched.Controller // nil unless WithService

	// simMu serializes every user of the cycle simulator (its counters
	// are plain fields); Stats TryLocks it and falls back to the last
	// published snapshot when a simulated run is in flight.
	simMu     sync.Mutex
	lastStats atomic.Pointer[memsim.Stats]
}

// Option configures an Env.
type Option func(*envConfig)

type envConfig struct {
	hierarchy memsim.Config
	capacity  uint64
	budget    uint64
	service   *ServiceConfig
}

// ServiceConfig tunes multi-tenant service mode (WithService).
type ServiceConfig struct {
	// MaxConcurrent bounds the queries in flight at once; further
	// admissible queries queue FIFO. 0 selects 8.
	MaxConcurrent int
	// QueueDepth bounds the admission queue; one more query is shed
	// with a *AdmissionError (QueueFull). 0 selects 64.
	QueueDepth int
	// QueueTimeout sheds a query still queued after this long with a
	// *AdmissionError that matches context.DeadlineExceeded. 0 means
	// no server-side bound (each query's own context still applies).
	QueueTimeout time.Duration
	// Workers sizes the shared morsel worker pool that executes every
	// admitted native join. 0 selects GOMAXPROCS.
	Workers int
}

// ServiceCounters are the aggregate counters of a service-mode Env:
// admissions, sheds by reason, queue-wait totals, morsels executed by
// the shared pool, window reclamations, and instantaneous in-flight /
// queued / reserved-bytes gauges.
type ServiceCounters = sched.Counters

// WithHierarchy selects the simulated memory hierarchy (default: the
// paper's Table 2 / Compaq ES40 configuration).
func WithHierarchy(cfg memsim.Config) Option {
	return func(e *envConfig) { e.hierarchy = cfg }
}

// WithSmallHierarchy selects the 8x-scaled hierarchy used by tests and
// benchmarks (128 KB L2, unchanged latencies).
func WithSmallHierarchy() Option {
	return func(e *envConfig) { e.hierarchy = memsim.SmallConfig() }
}

// WithCapacity sets the simulated address-space capacity in bytes
// (default 256 MB). Relations, hash tables, partitions, and output all
// live within it.
func WithCapacity(bytes uint64) Option {
	return func(e *envConfig) { e.capacity = bytes }
}

// WithCacheFlushing injects worst-case cache interference: both caches
// and the TLB are invalidated every interval cycles (paper Figure 18).
func WithCacheFlushing(interval uint64) Option {
	return func(e *envConfig) { e.hierarchy.FlushInterval = interval }
}

// WithArenaBudget installs a soft allocation ceiling, in bytes, below
// the Env's physical capacity. Runs that would push the arena past it
// fail with an error carrying a usage breakdown instead of growing
// toward the capacity panic — the knob for operating an Env as a
// resident service with a firm memory envelope.
func WithArenaBudget(bytes uint64) Option {
	return func(e *envConfig) { e.budget = bytes }
}

// WithService enables multi-tenant service mode: concurrent
// RunPipelineContext calls are arbitrated by an admission controller
// (queue, admit on a private scratch window, or shed with a typed
// *AdmissionError) and executed on a shared, fairly scheduled morsel
// worker pool. A service Env must be Closed when done to release the
// pool's goroutines.
func WithService(sc ServiceConfig) Option {
	return func(e *envConfig) { e.service = &sc }
}

// NewEnv creates an environment.
func NewEnv(opts ...Option) *Env {
	ec := envConfig{hierarchy: memsim.ES40Config(), capacity: 256 << 20}
	for _, o := range opts {
		o(&ec)
	}
	env := &Env{
		mem: vmem.NewSized(ec.capacity, ec.hierarchy),
		cfg: ec.hierarchy,
	}
	if ec.budget > 0 {
		env.mem.A.SetBudget(ec.budget)
	}
	if ec.service != nil {
		env.svc = sched.NewController(sched.Config{
			Arena:         env.mem.A,
			MaxConcurrent: ec.service.MaxConcurrent,
			QueueDepth:    ec.service.QueueDepth,
			QueueTimeout:  ec.service.QueueTimeout,
			Workers:       ec.service.Workers,
		})
	}
	return env
}

// Close drains a service-mode Env: queued queries are shed, in-flight
// queries run to completion, later admissions fail with a Draining
// *AdmissionError, and the shared worker pool exits. A non-service Env
// has nothing to release; Close is then a no-op. Idempotent.
func (e *Env) Close() {
	if e.svc != nil {
		e.svc.Close()
	}
}

// ServiceStats snapshots the service-mode aggregate counters; the zero
// value for a non-service Env.
func (e *Env) ServiceStats() ServiceCounters {
	if e.svc == nil {
		return ServiceCounters{}
	}
	return e.svc.Stats()
}

// OnReclaim registers fn to run — on its own goroutine — each time a
// quiescent service-mode Env reclaims its arena back to the durable
// base. Long-lived holders of Env-derived state (a server caching
// prepared build sides, say) use it to trim in step with memory
// pressure easing. Pass nil to clear. A no-op on a non-service Env,
// which never reclaims. Set it before serving traffic; it is not
// synchronized against in-flight reclamations.
func (e *Env) OnReclaim(fn func()) {
	if e.svc != nil {
		e.svc.SetReclaimHook(fn)
	}
}

// Durable runs fn while the Env is exclusively held — no query in
// flight, every reclaimed scratch window truncated — so allocations fn
// makes (NewRelation, Append) are durable and safe even while the
// service is live. On a non-service Env it just runs fn. It returns
// fn's error, or the *AdmissionError if exclusive admission failed.
func (e *Env) Durable(ctx context.Context, fn func() error) error {
	release, err := e.admitExclusive(ctx, "durable")
	if err != nil {
		return err
	}
	ferr := fn()
	release(ferr)
	return ferr
}

// exclusiveSim is admitExclusive plus the simulator lock, for the
// error-less legacy entry points (Partition, Aggregate). The only way
// admission can fail without a caller deadline is a closed Env, which
// is a programming error: it panics.
func (e *Env) exclusiveSim(tenant string) func() {
	release, err := e.admitExclusive(context.Background(), tenant)
	if err != nil {
		panic("hashjoin: " + err.Error())
	}
	e.simMu.Lock()
	return func() {
		e.simMu.Unlock()
		release(nil)
	}
}

// admitExclusive acquires exclusive use of a service Env; a no-op on a
// plain Env. The returned release must be called exactly once.
func (e *Env) admitExclusive(ctx context.Context, tenant string) (func(error), error) {
	if e.svc == nil {
		return func(error) {}, nil
	}
	g, err := e.svc.Admit(ctx, sched.Request{Tenant: tenant, Exclusive: true})
	if err != nil {
		return nil, err
	}
	return func(ferr error) { g.Release(ferr) }, nil
}

// Stats returns the cumulative simulation statistics of the Env. It is
// safe to call while queries run: if the simulator is busy (its
// counters are not atomic), the last published snapshot is returned
// instead of torn counters.
func (e *Env) Stats() Stats {
	if e.simMu.TryLock() {
		s := e.mem.S.Stats()
		e.simMu.Unlock()
		e.lastStats.Store(&s)
		return s
	}
	if s := e.lastStats.Load(); s != nil {
		return *s
	}
	return Stats{}
}

// Relation is a simulated table: fixed-width tuples of a 4-byte join
// key plus payload, stored in slotted pages.
type Relation struct {
	rel *storage.Relation
	env *Env
}

// NewRelation creates an empty relation with tupleSize-byte tuples
// (4-byte key + payload) on 8 KB slotted pages.
func (e *Env) NewRelation(tupleSize int) *Relation {
	return &Relation{
		rel: storage.NewRelation(e.mem.A, storage.KeyPayloadSchema(tupleSize), 8<<10),
		env: e,
	}
}

// Append adds one tuple. The payload is padded or truncated to the
// relation's payload width.
func (r *Relation) Append(key uint32, payload []byte) {
	width := r.rel.Schema.FixedWidth()
	tup := make([]byte, width)
	tup[0] = byte(key)
	tup[1] = byte(key >> 8)
	tup[2] = byte(key >> 16)
	tup[3] = byte(key >> 24)
	copy(tup[4:], payload)
	r.rel.Append(tup, hashCode(key))
}

// Len returns the tuple count.
func (r *Relation) Len() int { return r.rel.NTuples }

// Bytes returns the storage footprint.
func (r *Relation) Bytes() int { return r.rel.ByteSize() }

// Workload is a generated build/probe relation pair with ground truth
// about the join they produce, for benchmarks and service smoke tests.
type Workload struct {
	Build, Probe *Relation

	// ExpectedMatches and KeySum are the exact output row count and
	// order-independent key checksum an equijoin of the pair must yield.
	ExpectedMatches int
	KeySum          uint64
}

// GenerateWorkload materializes a deterministic benchmark pair into
// the Env: nBuild build tuples with unique keys, nProbe probe tuples
// of which the first nBuild match one build tuple each (0 derives
// nProbe = nBuild), all tupleSize bytes wide. On a service Env the
// load runs under Durable, so it is safe while queries are in flight.
func (e *Env) GenerateWorkload(ctx context.Context, nBuild, nProbe, tupleSize int, seed int64) (*Workload, error) {
	var w *Workload
	err := e.Durable(ctx, func() (ferr error) {
		defer arena.RecoverOOM(&ferr)
		pair := workload.Generate(e.mem.A, workload.Spec{
			NBuild: nBuild, NProbe: nProbe, TupleSize: tupleSize, Seed: seed,
		})
		w = &Workload{
			Build:           &Relation{rel: pair.Build, env: e},
			Probe:           &Relation{rel: pair.Probe, env: e},
			ExpectedMatches: pair.ExpectedMatches,
			KeySum:          pair.KeySum,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// JoinOption configures a join.
type JoinOption func(*joinConfig)

type joinConfig struct {
	scheme     Scheme
	params     Params
	memBudget  int
	keepOutput bool
	endToEnd   bool
}

// WithScheme selects the prefetching scheme (default Group).
func WithScheme(s Scheme) JoinOption {
	return func(c *joinConfig) { c.scheme = s }
}

// WithParams tunes G and D.
func WithParams(p Params) JoinOption {
	return func(c *joinConfig) { c.params = p }
}

// WithMemBudget sets the join-phase memory budget in bytes and enables
// the full GRACE pipeline (I/O partitioning first). Without it the two
// relations are joined directly as one partition pair.
func WithMemBudget(bytes int) JoinOption {
	return func(c *joinConfig) { c.memBudget = bytes; c.endToEnd = true }
}

// KeepOutput materializes the joined tuples for inspection.
func KeepOutput() JoinOption {
	return func(c *joinConfig) { c.keepOutput = true }
}

// Result reports a join.
type Result struct {
	NOutput int    // output tuples produced
	KeySum  uint64 // order-independent checksum of output build keys

	NPartitions int // 1 for direct pair joins

	PartitionStats Stats // zero for direct pair joins
	JoinStats      Stats

	output *storage.Relation
}

// TotalCycles returns the simulated cycles of all measured phases.
func (r Result) TotalCycles() uint64 {
	return r.PartitionStats.Total() + r.JoinStats.Total()
}

// Breakdown formats the cycle decomposition.
func (r Result) Breakdown() string {
	s := r.PartitionStats.Add(r.JoinStats)
	total := float64(s.Total())
	return fmt.Sprintf("busy %.0f%% / dcache %.0f%% / dtlb %.0f%% / other %.0f%%",
		100*float64(s.Busy)/total, 100*float64(s.DCacheStall)/total,
		100*float64(s.TLBStall)/total, 100*float64(s.OtherStall)/total)
}

// EachOutput iterates over materialized output tuples (KeepOutput).
func (r Result) EachOutput(fn func(tuple []byte)) {
	if r.output == nil {
		return
	}
	r.output.Each(func(t []byte, _ uint32) { fn(t) })
}

// Join joins two relations built in this Env. Join scratch (hash
// tables, partitions) is scoped to the call and reclaimed before it
// returns — unless KeepOutput materializes the joined tuples, which
// then stay resident. Arena exhaustion (capacity or WithArenaBudget)
// surfaces as an error with a usage breakdown, not a panic.
func (e *Env) Join(build, probe *Relation, opts ...JoinOption) (Result, error) {
	return e.JoinContext(context.Background(), build, probe, opts...)
}

// JoinContext is Join under a context: the run checks ctx before each
// partitioning pass and before each partition-pair join, so it stops
// within one pair of cancellation or deadline expiry. A cancelled join
// returns a *CancelError that matches both ErrCancelled and the
// context's own error, and reports how many pairs had completed.
func (e *Env) JoinContext(ctx context.Context, build, probe *Relation, opts ...JoinOption) (res Result, err error) {
	jc := joinConfig{scheme: Group, params: core.DefaultParams()}
	for _, o := range opts {
		o(&jc)
	}
	if build.env != e || probe.env != e {
		panic("hashjoin: relations belong to a different Env")
	}
	// Simulated joins are exclusive tenants on a service Env: the cycle
	// simulator is single-threaded and the join's scratch scopes on the
	// shared arena must not interleave with carved windows.
	release, aerr := e.admitExclusive(ctx, "join")
	if aerr != nil {
		return Result{}, aerr
	}
	defer func() { release(err) }()
	e.simMu.Lock()
	defer e.simMu.Unlock()
	if !jc.keepOutput {
		scope := e.mem.A.Scope()
		defer scope.Release()
	}
	defer arena.RecoverOOM(&err)
	start := time.Now()
	if jc.endToEnd {
		gr := core.Grace(e.mem, build.rel, probe.rel, core.GraceConfig{
			MemBudget:  jc.memBudget,
			PartScheme: Combined,
			JoinScheme: jc.scheme,
			PartParams: jc.params,
			JoinParams: jc.params,
			Keep:       jc.keepOutput,
			Check:      ctx.Err,
		})
		if gr.Err != nil {
			return Result{}, &CancelError{
				Cause:      gr.Err,
				PairsDone:  gr.PairsJoined,
				PairsTotal: gr.NPartitions,
				RowsOut:    gr.NOutput,
				Elapsed:    time.Since(start),
			}
		}
		return Result{
			NOutput:        gr.NOutput,
			KeySum:         gr.KeySum,
			NPartitions:    gr.NPartitions,
			PartitionStats: gr.PartBuildStats.Add(gr.PartProbeStats),
			JoinStats:      gr.JoinStats,
		}, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, &CancelError{Cause: cerr, PairsTotal: 1, Elapsed: time.Since(start)}
	}
	jr := core.JoinPair(e.mem, build.rel, probe.rel, jc.scheme, jc.params, 1, jc.keepOutput)
	return Result{
		NOutput:     jr.NOutput,
		KeySum:      jr.KeySum,
		NPartitions: 1,
		JoinStats:   jr.Stats(),
		output:      jr.Output,
	}, nil
}

// Partition divides a relation into n hash partitions, returning the
// per-partition tuple counts and the phase breakdown.
func (e *Env) Partition(r *Relation, n int, opts ...JoinOption) (counts []int, stats Stats) {
	jc := joinConfig{scheme: Combined, params: core.DefaultParams()}
	for _, o := range opts {
		o(&jc)
	}
	defer e.exclusiveSim("partition")()
	res := core.PartitionRelation(e.mem, r.rel, n, jc.scheme, jc.params)
	counts = make([]int, n)
	for i, p := range res.Partitions {
		counts[i] = p.NTuples
	}
	return counts, res.Stats
}

// GroupStat is one aggregation group: COUNT(*) and SUM(value) where the
// value is the 4-byte integer following the key in each tuple.
type GroupStat = engine.Group

// Aggregate performs a hash-based group-by over r's join keys — the
// extension the paper's conclusion proposes for its techniques. Scheme
// Baseline, Simple, or Group applies; expectedGroups sizes the hash
// table. It returns the per-group stats and the phase breakdown.
func (e *Env) Aggregate(r *Relation, expectedGroups int, opts ...JoinOption) ([]GroupStat, Stats) {
	jc := joinConfig{scheme: Group, params: core.DefaultParams()}
	for _, o := range opts {
		o(&jc)
	}
	defer e.exclusiveSim("aggregate")()
	res := core.Aggregate(e.mem, r.rel, expectedGroups, jc.scheme, jc.params)
	groups := make([]GroupStat, 0, res.NGroups)
	res.Each(func(key uint32, count, sum uint64) {
		groups = append(groups, GroupStat{Key: key, Count: count, Sum: sum})
	})
	return groups, res.Stats
}

// OptimalParams returns the analytically derived smallest G and D that
// hide all probe-loop miss latencies at the Env's memory latency
// (the paper's Theorems 1 and 2).
func (e *Env) OptimalParams() Params {
	return OptimalParamsFor(e.cfg.MemLatency, e.cfg.MemNextLatency)
}

// OptimalParamsFor computes the Theorem 1/2 minima for a probe loop on a
// memory system with full latency t and pipelined latency tnext.
func OptimalParamsFor(t, tnext uint64) Params {
	stages := model.ProbeStages(t, tnext)
	p := Params{G: stages.OptimalG(), D: stages.OptimalD()}
	if p.G == 0 {
		p.G = core.DefaultParams().G
	}
	return p
}

// RunExperiment reproduces one of the paper's figures (e.g. "fig10a"),
// printing its tables to w. Scale is "tiny", "small", or "full". It
// returns an error for unknown ids or scales.
func RunExperiment(w io.Writer, id, scale string) error {
	e, ok := exp.Lookup(id)
	if !ok {
		return fmt.Errorf("hashjoin: unknown experiment %q (have %v)", id, exp.IDs())
	}
	sc, ok := exp.ByName(scale)
	if !ok {
		return fmt.Errorf("hashjoin: unknown scale %q", scale)
	}
	exp.RunAndPrint(w, e, sc, false)
	return nil
}

// ExperimentIDs lists the reproducible figures.
func ExperimentIDs() []string { return exp.IDs() }

// hashCode memoizes the engine's hash function when building Relations,
// as the partition phase would (paper section 7.1).
func hashCode(key uint32) uint32 { return jhash.CodeU32(key) }
