// Package engine is the backend-neutral, batch-oriented operator layer:
// one logical query plan (Scan -> Filter -> HashJoin -> HashAggregate)
// compiled onto either execution backend — the cycle-level simulator
// (every access timed against vmem.Mem) or the native engine (real
// memory, real caches, PREFETCHT0 on amd64).
//
// Operators follow an Open / NextBatch / Close protocol and exchange
// Batches of row descriptors. Batches are sized to the prefetch group
// size G, the paper's section 5.4 design rule: group prefetching's
// natural G-tuple boundaries are where the prefetched join can pause
// and hand output to its parent, so making the batch the group means a
// probe batch is exactly one group-prefetched probe pass — latency
// hiding inside a batch is identical to the monolithic loop's.
//
// Both backends address tuples in the same arena, so a Row is
// backend-neutral: the simulator reads it through timed loads, the
// native backend through the arena's backing bytes. Untimed result
// inspection (Run, Groups, Collect) reads the arena directly and is
// therefore backend-neutral too: for the same workload the two backends
// produce identical logical results — the same rows; the order a native
// join's rows arrive in is unspecified, because its workers share the
// input by morsels.
//
// Row contract: a join's rows carry the spans of its logical
// build||probe row that its parent declared. An aggregate reads the key
// and one 4-byte value, so the native hash join under it emits 8-byte
// rows and the aggregate reads the value at its remapped offset; a root
// drained by Collect, and any other parent, sees the whole row. A native
// hash join root drained by Run emits no rows: its workers count them
// (see Run). The simulator's operators always emit whole rows.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
)

// Row is one tuple flowing through a pipeline: the arena address of its
// bytes, its width, and the memoized hash code of its join key.
type Row struct {
	Addr arena.Addr
	Code uint32
	Len  int32
}

// Batch is a reusable container of rows. Operators fill it via
// NextBatch; the rows (and the bytes they point at) remain valid until
// the producing operator's next NextBatch or Close call.
type Batch struct {
	Rows []Row
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.Rows = b.Rows[:0] }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Operator is a batch-pull iterator. Open prepares state and may do
// pipeline-breaking work (materializing a build side, aggregating);
// NextBatch fills b with up to BatchSize rows and reports whether it
// produced any; Close releases the operator and its children. Close is
// idempotent towards children: an operator closes each child exactly
// once, whether the child was drained during Open or streamed until
// Close.
//
// Open and NextBatch return an error for conditions that are not
// programming bugs: a memory budget a partition pair cannot be split
// under, or a failure reported by a morsel worker. Deep
// allocation layers still panic with *arena.OOMError on exhaustion; the
// drain helpers (Run, Groups, Collect) recover that panic into an error,
// so callers of the helpers see every out-of-memory condition as an
// ordinary error. After a non-nil error the operator must still be
// Closed; Close remains safe and closes its children.
type Operator interface {
	Open() error
	NextBatch(b *Batch) (bool, error)
	Close()
}

// Backend selects an execution backend for a compiled plan.
type Backend int

const (
	// Sim executes under the cycle-level memory-hierarchy simulator;
	// every access is timed against Config.Mem.
	Sim Backend = iota
	// Native executes on the host hardware with real prefetches.
	Native
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case Sim:
		return "sim"
	case Native:
		return "native"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Config selects and tunes a backend for Compile.
type Config struct {
	Backend Backend

	// Mem is the timed memory view; required for the Sim backend. Its
	// arena must hold every relation referenced by the plan.
	Mem *vmem.Mem

	// A is the arena holding the plan's relations; required for the
	// Native backend (Sim defaults it to Mem.A). Operator scratch —
	// join output rows, aggregate records — is allocated from it.
	A *arena.Arena

	// Scheme selects the prefetching strategy for joins and aggregates.
	// The simulator's pipelined join operator always probes with group
	// prefetching (the pipeline-friendly scheme, section 5.4); Scheme
	// still selects the simulated aggregation variant. The native
	// backend restructures both loops per the scheme, with Simple and
	// Combined running as Baseline (no native analog).
	Scheme core.Scheme

	// Params tunes G and D. G is also the batch size: zero selects the
	// backend default (the paper's tuned G=19 under simulation,
	// native.DefaultG natively).
	Params core.Params

	// Strategy selects the join's physical execution strategy (see
	// plan.Choose): StreamHash forces the single-table streaming probe;
	// PartitionedHash forces the radix+morsel join (native only). The
	// zero value Auto keeps the legacy Fanout-driven selection below.
	Strategy plan.Strategy

	// Fanout, for the native backend, selects the join strategy: <= 1
	// streams probe groups through one resident hash table, the probe
	// relation's page ranges being the morsels; > 1 radix-partitions
	// both inputs (rounded up to a power of two) and the partition pairs
	// are the morsels. Either way the workers share the morsels and feed
	// output batches into the pipeline.
	Fanout int

	// Workers bounds the native join's workers (0 = GOMAXPROCS) under
	// both strategies: the streaming join builds its table over that
	// many slots and probes a scanned probe relation with that many
	// probers, the caller waiting; the partitioned join runs that many
	// pair joiners. With a shared Pool installed it bounds this plan's
	// concurrent slots within the pool instead.
	Workers int

	// Pool, when non-nil, executes the native join's morsels — build
	// ranges, probe page ranges, partition pairs — on a shared worker
	// pool (the multi-tenant scheduler) instead of per-plan goroutines.
	// Tenant and Weight label the plan's morsel jobs for the pool's
	// weighted round-robin interleaving.
	Pool   native.Pool
	Tenant string
	Weight int

	// MemBudget, when > 0, bounds the resident footprint of a native
	// join's build side in bytes. A streaming join (Fanout <= 1) whose
	// build would exceed it falls back to the partitioned morsel
	// strategy, whose pairs run under the adaptive hybrid policy
	// (native hybrid.go): the pairs that fit run first, each hash code
	// too big to fit on its own — irreducible duplicate-key skew — is
	// joined out of core through internal/spill rather than failing, and
	// the rest of an oversized pair is re-partitioned recursively
	// (bounded depth). 0 means unbudgeted.
	MemBudget int

	// SpillDir is the parent directory spec for the native join's
	// out-of-core spill area: an ordered, comma-separated list of
	// directories tried in order as earlier ones turn unhealthy; "" means
	// the OS temp directory. The spill tier creates and removes its own
	// subdirectory per run in each parent it uses.
	SpillDir string

	// SpillWorkers is the write-behind worker count for the spill tier;
	// 0 selects the spill package default. Negative is a Compile error.
	SpillWorkers int

	// NoSpill disables the out-of-core tier: an over-budget pair is
	// re-partitioned instead, and one still over MemBudget at maximum
	// recursion depth fails with *native.BudgetError.
	NoSpill bool

	// BudgetNow, when non-nil, is the mid-join memory pressure signal:
	// sampled at each partition-pair claim, a positive value below
	// MemBudget lowers the budget for pairs not yet started, demoting
	// planned-resident pairs to the out-of-core tier without restarting
	// the query. The service layer wires a budgeted run's sched.Grant
	// advisory budget here.
	BudgetNow func() int

	// SpillPageSize overrides the spill tier's page size in bytes; 0
	// selects the spill package default. Must satisfy the spill package's
	// page-size bounds when set.
	SpillPageSize int

	// Build, when non-nil, supplies the join's build side as a pre-built
	// immutable row table: the plan's build child is never opened, and
	// the probe side streams through fresh probe scratch over the shared
	// table (Fanout and the MemBudget build degradation are ignored for
	// the join — the table is already resident, accounted to its owner).
	// Native backend only; the handle's width must match the plan's
	// build width. This is how the service probes one cached build side
	// from many concurrent queries without rebuilding.
	Build *native.BuildSide

	// Report, when non-nil, receives execution detail the result rows
	// cannot carry — the join's effective fan-out, how deep the budget
	// degradation had to recurse, and what the spill tier did. Written
	// when the join finishes.
	Report *Report

	// Ctx cancels a compiled pipeline cooperatively: scans check it at
	// batch boundaries, the native streaming join before each probe
	// group, the partitioned join before each partition-pair claim, and
	// the spill tier at page boundaries. nil means context.Background
	// (never cancelled).
	Ctx context.Context
}

// Report carries per-run execution detail out of a compiled pipeline:
// the join operator's shape, and the native join's own run report by
// value. The front ends embed it in their results and point
// Config.Report at the embedded value, so there is no copy to keep in
// step.
type Report struct {
	// JoinFanout is the partition count the native join actually used
	// (1 for the streaming strategy).
	JoinFanout int
	// JoinRecursionDepth is the deepest recursive re-partitioning any
	// pair needed to fit MemBudget; 0 when every pair fit directly.
	JoinRecursionDepth int
	// MorselsExecuted counts the morsels the native join's workers
	// shared: the partition pairs it actually ran, or, for the streaming
	// strategy, the page ranges its probe relation was cut into. 0 on
	// the Sim backend.
	MorselsExecuted int

	// What the spill tier and the hybrid policy did; all zero for a
	// join that stayed in memory.
	native.Report
}

// batchSize returns the batch capacity (= G) for the config's backend.
func (c Config) batchSize() int {
	if c.Params.G > 0 {
		return c.Params.G
	}
	if c.Backend == Native {
		return native.DefaultG
	}
	return core.DefaultParams().G
}

// workers returns the native morsel worker count the config runs with.
func (c Config) workers() int {
	if c.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// NativeScheme maps a simulator scheme onto the native engine's — the
// one such mapping, so what a front end prints is what the engine ran.
// Simple (whole-page prefetch) and Combined (partition phase only) have
// no native analog and run as Baseline.
func NativeScheme(s core.Scheme) native.Scheme {
	switch s {
	case core.SchemeGroup:
		return native.Group
	case core.SchemePipelined:
		return native.Pipelined
	default:
		return native.Baseline
	}
}

// --- Logical plan ---

type nodeKind int

const (
	scanNode nodeKind = iota
	filterNode
	joinNode
	aggNode
)

// Node is one logical plan operator. Build plans with Scan, Filter,
// HashJoin, and HashAggregate, then Compile against a Config.
type Node struct {
	kind nodeKind

	rel *storage.Relation // scanNode

	pred Pred // filterNode

	build    *Node         // joinNode: build side
	input    *Node         // filter/join (probe side)/agg child
	joinType plan.JoinType // joinNode: match semantics (zero = inner)

	valueOff int // aggNode: byte offset of the summed 4-byte value
	groups   int // aggNode: expected group count (table sizing)
}

// Pred is a declarative row predicate both backends can evaluate: it
// selects rows whose join key lies in [Lo, Hi].
type Pred struct {
	Lo, Hi uint32
}

// Scan reads a relation in storage order.
func Scan(rel *storage.Relation) *Node {
	if rel.Schema.HasVar() {
		panic("engine: scans require fixed-width schemas")
	}
	return &Node{kind: scanNode, rel: rel}
}

// Filter passes through input rows whose key satisfies pred.
func Filter(input *Node, pred Pred) *Node {
	return &Node{kind: filterNode, input: input, pred: pred}
}

// KeyBetween selects lo <= key <= hi.
func KeyBetween(lo, hi uint32) Pred { return Pred{Lo: lo, Hi: hi} }

// HashJoin equi-joins build and probe on their 4-byte keys; the logical
// output rows are the concatenated build||probe tuples (see the package
// comment's row contract for what an operator's rows carry of them).
func HashJoin(build, probe *Node) *Node {
	return HashJoinTyped(build, probe, plan.Inner)
}

// HashJoinTyped is HashJoin with explicit match semantics. The probe
// side is the join's left input: left-outer output null-pads the build
// columns of unmatched probe rows (all-zero bytes, so the row's leading
// key reads 0), right-outer emits unmatched build rows with the probe
// columns null-padded, and semi/anti rows carry the probe tuple only —
// which narrows the node's output width to the probe width.
func HashJoinTyped(build, probe *Node, jt plan.JoinType) *Node {
	return &Node{kind: joinNode, build: build, input: probe, joinType: jt}
}

// AggTupleWidth is the width of HashAggregate's output rows: u32 group
// key, u64 count, u64 sum at offsets 0, 8, 16.
const AggTupleWidth = 24

// HashAggregate groups input rows by key, counting rows and summing the
// 4-byte value at valueOff within each row. expectedGroups sizes the
// hash table.
func HashAggregate(input *Node, valueOff, expectedGroups int) *Node {
	if valueOff < 4 {
		panic("engine: aggregation value offset overlaps the key")
	}
	return &Node{kind: aggNode, input: input, valueOff: valueOff, groups: expectedGroups}
}

// Width returns the node's fixed logical output row width in bytes.
func (n *Node) Width() int {
	switch n.kind {
	case scanNode:
		return n.rel.Schema.FixedWidth()
	case filterNode:
		return n.input.Width()
	case joinNode:
		if n.joinType.ProbeOnly() {
			return n.input.Width()
		}
		return n.build.Width() + n.input.Width()
	case aggNode:
		return AggTupleWidth
	default:
		panic("engine: unknown node kind")
	}
}

// scanRel returns the node's relation when it is a plain scan (no
// filter), letting both backends build directly over base relations
// instead of re-materializing them.
func (n *Node) scanRel() *storage.Relation {
	if n.kind == scanNode {
		return n.rel
	}
	return nil
}

// buildWidthOf returns the build-side width of the plan's single join,
// or -1 when the plan has no join (Config.Build is then simply unused).
func buildWidthOf(n *Node) int {
	for ; n != nil; n = n.input {
		if n.kind == joinNode {
			return n.build.Width()
		}
	}
	return -1
}

// span is a half-open byte range [lo, hi) of a node's logical output
// row (the row Width describes).
type span struct{ lo, hi int }

func spansWidth(spans []span) int {
	w := 0
	for _, s := range spans {
		w += s.hi - s.lo
	}
	return w
}

// projectOff maps a byte offset of the logical row to its offset in the
// row that carries only spans, packed in order.
func projectOff(spans []span, off int) int {
	at := 0
	for _, s := range spans {
		if off >= s.lo && off < s.hi {
			return at + off - s.lo
		}
		at += s.hi - s.lo
	}
	panic(fmt.Sprintf("engine: offset %d outside the declared spans %v", off, spans))
}

// reads returns the spans of its input's logical row that n's operator
// reads, nil meaning the whole row. Spans begin with the key, [0,4):
// every operator reads a row's key at offset 0. Only the aggregate
// declares — it reads the key and one 4-byte value; a filter hands its
// input rows on to a parent of its own, and a join copies its inputs
// whole.
func (n *Node) reads() []span {
	if n.kind == aggNode {
		return []span{{0, 4}, {n.valueOff, n.valueOff + 4}}
	}
	return nil
}

// emitSpans returns the spans of n's logical row that its operator's
// rows carry, packed in order, when compiled under parent (nil: n is
// the root, drained by Run or Collect). The native hash join emits what
// its parent declared; every other operator — the simulator's included —
// emits the whole row.
func (n *Node) emitSpans(parent *Node, cfg Config) []span {
	if parent != nil && n.kind == joinNode && cfg.Backend == Native {
		if need := parent.reads(); need != nil {
			return need
		}
	}
	return []span{{0, n.Width()}}
}

// JoinEmitWidth returns the byte width of the rows the plan's join
// writes when compiled under cfg's Backend, or 0 for a
// plan without a join. The scratch estimator sizes from it, so it
// follows the join type's narrowing and the parent's declared spans
// without mirroring either.
func (n *Node) JoinEmitWidth(cfg Config) int {
	var parent *Node
	for ; n != nil; parent, n = n, n.input {
		if n.kind == joinNode {
			return spansWidth(n.emitSpans(parent, cfg))
		}
	}
	return 0
}

// ScratchBytes estimates the arena scratch one run of the plan under
// cfg allocates beyond its relations — the one estimate admission
// windows (the service Env) and arena sizing (the CLI pipeline) are both
// cut from. buildRows is the build side's row count, which the caller
// may know before the relations exist. The estimate sums the rows a
// join stages for one probe group (matchesPerProbe each, in rows of
// JoinEmitWidth: the simulator's output; a native join under an
// aggregate or Run stages none, so for it the term is slack); the
// relation a non-scan build child is materialized into (buildRows
// tuples of the build width, in materializePage pages) — a
// native join materializes a non-scan probe child too, but no front end
// builds one (RunPipeline, the CLI and hjserve all scan the probe
// relation), so the estimate carries no probe term; an
// aggregate root's staging block, one AggTupleWidth row per group with
// buildRows bounding the groups; the native spill tier's page pool when
// it can engage (native.SpillPoolBytes, from the tier's own
// arithmetic); and 64 KiB of page-rounding slack. Scoped allocation
// reclaims all of it between runs, so this bounds a high-water mark,
// not a leak.
func (n *Node) ScratchBytes(cfg Config, matchesPerProbe, buildRows int) uint64 {
	width := uint64(n.JoinEmitWidth(cfg))
	batch := uint64(max(cfg.Params.G, native.DefaultG)) // covers both backends' default G
	total := uint64(matchesPerProbe)*batch*width + (64 << 10)
	for j := n; j != nil; j = j.input {
		if j.kind == joinNode {
			if j.build.scanRel() == nil {
				perPage := storage.CapacityFor(materializePage, j.build.Width())
				total += uint64((buildRows+perPage-1)/perPage) * materializePage
			}
			break
		}
	}
	if n.kind == aggNode {
		total += uint64(buildRows) * AggTupleWidth
	}
	if cfg.Backend == Native {
		total += native.SpillPoolBytes(cfg.joinConfig(plan.Inner))
	}
	return total
}

// ErrUnsupportedPlan classifies a well-formed plan no backend can run
// correctly; Compile wraps it with the shape it refused.
var ErrUnsupportedPlan = errors.New("engine: unsupported plan")

// validatePlan checks cross-node invariants that only surface once the
// whole tree is known. The load-bearing case: an aggregate's value
// offset must land inside its child's output width, and semi/anti joins
// narrow that width to the probe tuple alone — so an -agg offset that
// was fine for an inner join can dangle off the end of a semi join's
// rows. Catching it here turns a deep copy-out-of-bounds panic into a
// usage error the CLI can map to its exit taxonomy. A filter directly
// over a join is refused outright: a filter gathers one output batch
// across several of its child's, and the simulator's hash join recycles
// the scratch its rows live in at every NextBatch, so the filter would
// hand on rows already overwritten — until Compile owns batch lifetime.
func validatePlan(n *Node) error {
	if n == nil {
		return nil
	}
	switch n.kind {
	case filterNode:
		if n.input.kind == joinNode {
			return fmt.Errorf("%w: a filter over a hash join (filter the join's inputs instead)", ErrUnsupportedPlan)
		}
	case aggNode:
		if w := n.input.Width(); n.valueOff+4 > w {
			return fmt.Errorf("engine: aggregate value offset %d needs child width >= %d, have %d (semi/anti joins emit the probe tuple only)",
				n.valueOff, n.valueOff+4, w)
		}
	case joinNode:
		if err := validatePlan(n.build); err != nil {
			return err
		}
	}
	return validatePlan(n.input)
}

// Compile lowers the logical plan onto cfg's backend, returning the
// root operator. An invalid configuration — a missing Mem for the Sim
// backend, a missing arena for Native, negative tuning parameters — is
// reported as an error: configurations cross the public API boundary
// (options, CLI flags), so validating here is what keeps a bad flag
// from surfacing as a panic or a silent misbehavior deep in a run.
// Zero-valued Params fields are merged with the backend defaults.
func Compile(n *Node, cfg Config) (Operator, error) {
	switch cfg.Backend {
	case Sim:
		if cfg.Mem == nil {
			return nil, fmt.Errorf("engine: Sim backend requires Config.Mem")
		}
		if cfg.A == nil {
			cfg.A = cfg.Mem.A
		}
	case Native:
		if cfg.A == nil {
			return nil, fmt.Errorf("engine: Native backend requires Config.A")
		}
	default:
		return nil, fmt.Errorf("engine: unknown backend %v", cfg.Backend)
	}
	if cfg.Params.G < 0 || cfg.Params.D < 0 {
		return nil, fmt.Errorf("engine: params G=%d, D=%d: must be >= 1 (0 selects the backend default)",
			cfg.Params.G, cfg.Params.D)
	}
	if cfg.MemBudget < 0 {
		return nil, fmt.Errorf("engine: negative MemBudget %d", cfg.MemBudget)
	}
	if cfg.SpillWorkers < 0 {
		return nil, fmt.Errorf("engine: negative SpillWorkers %d", cfg.SpillWorkers)
	}
	if cfg.SpillPageSize < 0 {
		return nil, fmt.Errorf("engine: negative SpillPageSize %d", cfg.SpillPageSize)
	}
	switch cfg.Strategy {
	case plan.Auto, plan.StreamHash, plan.PartitionedHash:
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", cfg.Strategy)
	}
	if cfg.Strategy == plan.PartitionedHash {
		if cfg.Backend == Sim {
			return nil, fmt.Errorf("engine: strategy %v requires the Native backend (the simulator executes single-table joins only)", cfg.Strategy)
		}
		if cfg.Fanout <= 1 {
			// plan.Choose always pins a fanout; this is the bare-API
			// fallback so a forced partitioned join still partitions.
			cfg.Fanout = 8
		}
	}
	if cfg.Strategy == plan.StreamHash && cfg.Fanout > 1 {
		return nil, fmt.Errorf("engine: strategy %v runs over one table; fanout %d conflicts (use -strategy partitioned or auto)",
			cfg.Strategy, cfg.Fanout)
	}
	if cfg.Build != nil {
		if cfg.Backend != Native {
			return nil, fmt.Errorf("engine: Config.Build requires the Native backend")
		}
		if cfg.Strategy != plan.Auto && cfg.Strategy != plan.StreamHash {
			return nil, fmt.Errorf("engine: Config.Build is a prebuilt hash table; strategy %v cannot use it", cfg.Strategy)
		}
		if w := buildWidthOf(n); w >= 0 && w != cfg.Build.Width() {
			return nil, fmt.Errorf("engine: Config.Build width %d does not match the plan's build width %d",
				cfg.Build.Width(), w)
		}
	}
	if err := validatePlan(n); err != nil {
		return nil, err
	}
	// Merge zero fields with the backend defaults up front, so every
	// operator sees G >= 1 and D >= 1 no matter which layer reads them.
	if cfg.Params.G == 0 {
		cfg.Params.G = cfg.batchSize()
	}
	if cfg.Params.D == 0 {
		if cfg.Backend == Native {
			cfg.Params.D = native.DefaultD
		} else {
			cfg.Params.D = core.DefaultParams().D
		}
	}
	if cfg.Report != nil {
		*cfg.Report = Report{}
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	return compileNode(n, nil, cfg), nil
}

// compileNode lowers n, whose rows parent consumes (nil: the root).
func compileNode(n, parent *Node, cfg Config) Operator {
	switch n.kind {
	case scanNode:
		if cfg.Backend == Sim {
			s := newSimScan(cfg.Mem, n.rel, cfg.batchSize())
			s.ctx = cfg.Ctx
			return s
		}
		s := newNativeScan(cfg.A, n.rel, cfg.batchSize())
		s.ctx = cfg.Ctx
		return s
	case filterNode:
		child := compileNode(n.input, n, cfg)
		if cfg.Backend == Sim {
			return newSimFilter(cfg.Mem, child, n.pred, cfg.batchSize())
		}
		return newNativeFilter(cfg.A, child, n.pred, cfg.batchSize())
	case joinNode:
		build := compileNode(n.build, n, cfg)
		probe := compileNode(n.input, n, cfg)
		if cfg.Backend == Sim {
			return newSimHashJoin(cfg.Mem, build, probe,
				n.build.scanRel(), n.build.Width(), n.input.Width(), cfg.Params, n.joinType)
		}
		if cfg.Strategy == plan.StreamHash {
			cfg.Fanout = 1 // pin the single-table streaming path
		}
		return newNativeHashJoin(cfg, build, probe,
			n.build.scanRel(), n.input.scanRel(), n.build.Width(), n.input.Width(), n.joinType,
			n.emitSpans(parent, cfg))
	case aggNode:
		child := compileNode(n.input, n, cfg)
		if cfg.Backend == Sim {
			return newSimHashAggregate(cfg.Mem, child, n.input.scanRel(),
				n.input.Width(), n.valueOff, n.groups, cfg.Scheme, cfg.Params)
		}
		in := n.input.emitSpans(n, cfg)
		return newNativeHashAggregate(cfg, child, spansWidth(in), projectOff(in, n.valueOff), n.groups)
	default:
		panic("engine: unknown node kind")
	}
}

// --- Result helpers (untimed, backend-neutral) ---

// Result summarizes a drained pipeline.
type Result struct {
	NRows  int    // rows produced by the root operator
	KeySum uint64 // sum over rows of the u32 key at offset 0
}

// Output is a plan's drained result. NOutput and KeySum describe the
// join's output whether or not an aggregate ran: the groups partition
// the join output, so with one the totals are recovered from them
// (NOutput = Σ count, KeySum = Σ key·count).
type Output struct {
	NOutput int
	KeySum  uint64
	Groups  []Group       // aggregate root only, sorted by key
	Elapsed time.Duration // wall clock of compile + drain
}

// Execute is the run tail every front end shares: compile n under cfg,
// drain an aggregate root through Groups and any other through Run, and
// hand back the join's totals. A context error noticed by any layer
// (scans return ctx.Err() bare) comes back as the *native.CancelError
// the exit taxonomy keys on.
func Execute(n *Node, cfg Config) (out Output, err error) {
	start := time.Now()
	root, err := Compile(n, cfg)
	if err != nil {
		return Output{}, err
	}
	a := cfg.A
	if a == nil {
		a = cfg.Mem.A // Compile's default for the Sim backend
	}
	if n.kind == aggNode {
		out.Groups, err = Groups(root, a)
		for _, g := range out.Groups {
			out.NOutput += int(g.Count)
			out.KeySum += uint64(g.Key) * g.Count
		}
	} else {
		var r Result
		r, err = Run(root, a)
		out.NOutput, out.KeySum = r.NRows, r.KeySum
	}
	out.Elapsed = time.Since(start)
	if err != nil {
		return Output{}, wrapCancel(err, out.Elapsed)
	}
	return out, nil
}

// wrapCancel normalizes a raw context error into the typed
// *native.CancelError; errors that already carry the type (the native
// morsel join builds them with pair-level progress) and errors of other
// classes pass through.
func wrapCancel(err error, elapsed time.Duration) error {
	var ce *native.CancelError
	if errors.As(err, &ce) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &native.CancelError{Cause: err, Elapsed: elapsed}
	}
	return err
}

// Run opens, drains, and closes root, reading each row's leading u32
// key through the arena (untimed — result inspection, not measured
// work). For a join root this yields the join's NOutput and KeySum. A
// native hash join root is not drained at all: its workers count rows
// and sum keys as they match (joinCounter), so no output row is
// written; any other root hands its rows out batch by batch.
//
// Run owns the pipeline's arena scratch: it opens a scope before Open
// and releases it after Close, so per-run allocations (join output
// rows, staged aggregation rows, materialized intermediates) are
// reclaimed and a resident arena's Used() is stable across unlimited
// runs. An *arena.OOMError panic from any depth of the pipeline is
// recovered into the returned error.
func Run(root Operator, a *arena.Arena) (res Result, err error) {
	scope := a.Scope()
	defer scope.Release()
	defer arena.RecoverOOM(&err)
	var counted *joinCounter
	if h, ok := root.(*nativeHashJoin); ok {
		counted = countJoin(h)
		defer func() { h.sinkFor = nil }()
	}
	if err = root.Open(); err != nil {
		root.Close()
		return Result{}, err
	}
	defer root.Close()
	if counted != nil {
		return counted.result(), nil
	}
	var b Batch
	for {
		ok, berr := root.NextBatch(&b)
		if berr != nil {
			return Result{}, berr
		}
		if !ok {
			return res, nil
		}
		res.NRows += len(b.Rows)
		for i := range b.Rows {
			res.KeySum += uint64(a.U32(b.Rows[i].Addr))
		}
	}
}

// Group is one aggregation result row.
type Group struct {
	Key        uint32
	Count, Sum uint64
}

// Groups opens, drains, and closes an aggregation root, decoding its
// 24-byte rows and returning the groups sorted by key — a deterministic
// order shared by both backends, so equal workloads yield byte-identical
// group lists regardless of engine or hash-table iteration order (a
// native aggregate hands over its folded list, already in that order,
// and none for no groups, as on the simulator). Like Run, it scopes the pipeline's arena scratch (the groups are
// copied out before the scope is released) and recovers arena
// exhaustion into the returned error.
func Groups(root Operator, a *arena.Arena) (out []Group, err error) {
	scope := a.Scope()
	defer scope.Release()
	defer arena.RecoverOOM(&err)
	if err = root.Open(); err != nil {
		root.Close()
		return nil, err
	}
	defer root.Close()
	if s, ok := root.(interface{ sortedGroups() []Group }); ok {
		return s.sortedGroups(), nil
	}
	var b Batch
	for {
		ok, berr := root.NextBatch(&b)
		if berr != nil {
			return nil, berr
		}
		if !ok {
			break
		}
		for i := range b.Rows {
			addr := b.Rows[i].Addr
			out = append(out, Group{
				Key:   a.U32(addr),
				Count: a.U64(addr + 8),
				Sum:   a.U64(addr + 16),
			})
		}
	}
	return sortGroups(out), nil
}

// sortGroups orders gs by key, ascending, with a byte-wise LSD radix
// sort: four counting passes at most, a pass skipped when every key
// shares that byte, no comparisons and no reflection. It is stable. The
// result is gs or the scatter buffer, whichever the last pass filled.
func sortGroups(gs []Group) []Group {
	if len(gs) < 2 {
		return gs
	}
	var counts [4][256]int
	for i := range gs {
		k := gs[i].Key
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24]++
	}
	src, dst := gs, make([]Group, len(gs))
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[src[0].Key>>shift&0xff] == len(src) {
			continue
		}
		pos := 0
		for b, n := range c {
			c[b] = pos
			pos += n
		}
		for i := range src {
			b := src[i].Key >> shift & 0xff
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// Collect opens, drains, and closes root, returning an untimed copy of
// every row's bytes. For tests and result sinks. Scratch scoping and
// OOM recovery as in Run; a native hash join root writes its whole
// output into that scope before the first row is copied.
func Collect(root Operator, a *arena.Arena) (out [][]byte, err error) {
	scope := a.Scope()
	defer scope.Release()
	defer arena.RecoverOOM(&err)
	if err = root.Open(); err != nil {
		root.Close()
		return nil, err
	}
	defer root.Close()
	var b Batch
	for {
		ok, berr := root.NextBatch(&b)
		if berr != nil {
			return nil, berr
		}
		if !ok {
			return out, nil
		}
		for i := range b.Rows {
			r := b.Rows[i]
			out = append(out, append([]byte(nil), a.Bytes(r.Addr, uint64(r.Len))...))
		}
	}
}
