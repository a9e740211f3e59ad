// Package cli is the shared front end of the hjquery and hjbench
// commands: one place that parses engine, scheme, and hierarchy flag
// values, rounds partition fan-outs, and runs the common
// Scan -> HashJoin -> HashAggregate pipeline on either backend of the
// operator engine. Both commands share one exit-code taxonomy (see
// ExitCodeFor): 2 for flag mistakes through Fatalf, and 1/3/4 for
// runtime failures by class through Dief and DiePipeline.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/memsim"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/sched"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
	"hashjoin/internal/workload"
)

// ParseEngine maps an -engine flag value onto an engine backend.
func ParseEngine(s string) (engine.Backend, error) {
	switch s {
	case "sim":
		return engine.Sim, nil
	case "native":
		return engine.Native, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (accepted: sim, native)", s)
	}
}

// EngineNames lists the accepted -engine values.
func EngineNames() []string { return []string{"sim", "native"} }

// ParseHierarchy maps a -hier flag value onto a simulated memory
// hierarchy.
func ParseHierarchy(s string) (memsim.Config, error) {
	switch s {
	case "small":
		return memsim.SmallConfig(), nil
	case "es40":
		return memsim.ES40Config(), nil
	default:
		return memsim.Config{}, fmt.Errorf("unknown hierarchy %q (accepted: %s)",
			s, strings.Join(HierarchyNames(), ", "))
	}
}

// HierarchyNames lists the accepted -hier values.
func HierarchyNames() []string { return []string{"small", "es40"} }

// ParseScheme maps a -scheme flag value onto a prefetching scheme.
func ParseScheme(s string) (core.Scheme, error) {
	switch s {
	case "baseline":
		return core.SchemeBaseline, nil
	case "simple":
		return core.SchemeSimple, nil
	case "group":
		return core.SchemeGroup, nil
	case "pipelined":
		return core.SchemePipelined, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (accepted: %s)",
			s, strings.Join(SchemeNames(), ", "))
	}
}

// SchemeNames lists the accepted -scheme values (without "plan").
func SchemeNames() []string { return []string{"baseline", "simple", "group", "pipelined"} }

// ParsePlanScheme is ParseScheme plus the "plan" value, which defers
// the choice to the catalog planner; it returns usePlan = true in that
// case.
func ParsePlanScheme(s string) (scheme core.Scheme, usePlan bool, err error) {
	if s == "plan" {
		return 0, true, nil
	}
	scheme, err = ParseScheme(s)
	if err != nil {
		err = fmt.Errorf("unknown scheme %q (accepted: plan, %s)",
			s, strings.Join(SchemeNames(), ", "))
	}
	return scheme, false, err
}

// ParseSchemeList parses a comma-separated -schemes flag value,
// trimming whitespace around each name.
func ParseSchemeList(csv string) ([]core.Scheme, error) {
	parts := strings.Split(csv, ",")
	out := make([]core.Scheme, 0, len(parts))
	for _, p := range parts {
		s, err := ParseScheme(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// NormalizeFanout rounds a requested partition fan-out the way the
// native partitioner does: values above one round up to the next power
// of two; zero and one are passed through (0 = derive, 1 = single pair).
func NormalizeFanout(n int) int {
	if n <= 1 {
		return n
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Exit codes shared by hjbench and hjquery, so scripts can tell a
// query that ran out of time from one that ran out of memory without
// parsing stderr.
const (
	ExitOK        = 0
	ExitFailure   = 1 // runtime failure of no more specific class
	ExitUsage     = 2 // bad flag value
	ExitMemory    = 3 // arena exhaustion or irreducible over-budget pair
	ExitCancelled = 4 // -timeout expiry or context cancellation
	ExitInternal  = 5 // recovered panic while serving a request
	ExitProtocol  = 6 // malformed client input (e.g. an oversized line)
)

// ExitCodeFor classifies a runtime error into the exit-code taxonomy.
// Cancellation is checked first: a join cut short by a deadline may
// surface secondary errors from other layers, and "it was cancelled"
// is the truth the caller acts on. (An admission queue timeout unwraps
// to context.DeadlineExceeded and so lands there too.) An admission
// shed for size is a memory-class failure — the query could never fit —
// while queue-full and draining sheds are plain failures: retryable,
// nothing about the query itself was wrong.
func ExitCodeFor(err error) int {
	if err == nil {
		return ExitOK
	}
	if errors.Is(err, native.ErrCancelled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ExitCancelled
	}
	var ae *sched.AdmissionError
	if errors.As(err, &ae) && ae.Reason == sched.TooLarge {
		return ExitMemory
	}
	if errors.Is(err, arena.ErrOutOfMemory) || errors.Is(err, native.ErrOverBudget) {
		return ExitMemory
	}
	if errors.Is(err, engine.ErrUnsupportedPlan) {
		return ExitUsage
	}
	return ExitFailure
}

// StatusName maps an exit code to the stable status word the hjserve
// wire protocol and its clients use.
func StatusName(code int) string {
	switch code {
	case ExitOK:
		return "ok"
	case ExitUsage:
		return "usage"
	case ExitMemory:
		return "memory"
	case ExitCancelled:
		return "cancelled"
	case ExitInternal:
		return "internal"
	case ExitProtocol:
		return "protocol"
	default:
		return "failure"
	}
}

// Fatalf reports a usage error (bad flag value) for prog: exit code 2.
func Fatalf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, strings.TrimSuffix(fmt.Sprintf(format, args...), "\n"))
	osExit(ExitUsage)
}

// Dief reports a runtime failure for prog: exit code 1.
func Dief(prog, format string, args ...any) {
	fmt.Fprintf(stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
	osExit(ExitFailure)
}

// DiePipeline reports a pipeline failure for prog and exits with the
// ExitCodeFor class of the error. Beyond the error itself it prints the
// breakdown lines of PipelineErrorDetail, so a budget, arena, timeout,
// or corruption failure arrives with its numbers instead of one opaque
// message.
func DiePipeline(prog string, err error) {
	fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	for _, line := range PipelineErrorDetail(err) {
		fmt.Fprintf(stderr, "%s:   %s\n", prog, line)
	}
	osExit(ExitCodeFor(err))
}

// PipelineErrorDetail returns human-readable breakdown lines for the
// failure modes a pipeline run can hit under memory pressure: the
// budget governor giving up (*native.BudgetError, only reachable with
// spilling disabled) and arena exhaustion (*arena.OOMError, with its
// durable/scope usage split). Other errors yield no extra lines.
func PipelineErrorDetail(err error) []string {
	var lines []string
	var ce *native.CancelError
	if errors.As(err, &ce) {
		lines = append(lines,
			fmt.Sprintf("cancelled after %v: %d of %d partition pairs joined, %d output rows discarded",
				ce.Elapsed.Round(time.Millisecond), ce.PairsDone, ce.PairsTotal, ce.RowsOut))
		if errors.Is(err, context.DeadlineExceeded) {
			lines = append(lines, "hint: raise -timeout, or shrink the workload")
		}
	}
	var ae *sched.AdmissionError
	if errors.As(err, &ae) {
		switch ae.Reason {
		case sched.TooLarge:
			lines = append(lines,
				fmt.Sprintf("admission: planned %d bytes of scratch, but at most %d is ever grantable", ae.Planned, ae.Limit),
				"hint: raise the arena budget, or declare a smaller planned scratch")
		case sched.QueueFull:
			lines = append(lines, "admission: queue full; retry when load drops")
		case sched.Timeout:
			lines = append(lines,
				fmt.Sprintf("admission: still queued after %v; the service is saturated", ae.Waited.Round(time.Millisecond)))
		case sched.Draining:
			lines = append(lines, "admission: the service is draining and admits nothing new")
		}
	}
	var sue *spill.SpillUnavailableError
	if errors.As(err, &sue) {
		lines = append(lines,
			fmt.Sprintf("spill: all %d configured spill director(ies) are unhealthy; the query was shed, not corrupted", len(sue.Dirs)),
			"hint: free disk space or point -spill-dir at healthy volumes (comma-separated); the tier re-probes and recovers on its own")
	}
	var cpe *spill.CorruptPageError
	if errors.As(err, &cpe) {
		lines = append(lines,
			fmt.Sprintf("spill corruption: %s page %d (offset %d): %s",
				cpe.File, cpe.Page, cpe.Offset, cpe.Reason),
			"the spill file was damaged between write and read; the join was abandoned, not silently truncated")
	}
	var be *native.BudgetError
	if errors.As(err, &be) {
		lines = append(lines,
			fmt.Sprintf("budget: %d bytes; irreducible pair needs ~%d (%.1fx over)",
				be.Budget, be.Need, float64(be.Need)/float64(max(be.Budget, 1))),
			fmt.Sprintf("re-partitioning gave up at depth %d; duplicate join keys defeat radix splitting", be.Depth),
			"hint: raise -budget, or drop -no-spill so the pair joins out of core")
	}
	var oe *arena.OOMError
	if errors.As(err, &oe) {
		lines = append(lines,
			fmt.Sprintf("arena: %d bytes used of %d capacity; allocation of %d (align %d) failed",
				oe.Used, oe.Cap, oe.Need, oe.Align))
		if oe.Budget != 0 {
			lines = append(lines, fmt.Sprintf("arena budget: %d bytes", oe.Budget))
		}
		if n := len(oe.ScopeHeld); n > 0 {
			lines = append(lines,
				fmt.Sprintf("usage: %d bytes durable, %d open scope(s) holding %v bytes of scratch",
					oe.Durable, n, oe.ScopeHeld))
		}
	}
	return lines
}

// osExit and stderr are swapped out by tests.
var (
	osExit           = os.Exit
	stderr io.Writer = os.Stderr
)

// Pipeline is the shared query both commands run: generate a workload,
// then Scan(build) ⋈ Scan(probe) feeding a group-by on the join key,
// compiled onto the selected backend of the operator engine. The same
// logical plan, and therefore the same logical result, on either
// engine.
type Pipeline struct {
	Engine    engine.Backend
	Spec      workload.Spec
	Scheme    core.Scheme
	Params    core.Params
	Hier      memsim.Config // Sim backend; zero value selects SmallConfig
	Fanout    int           // Native backend join strategy
	Workers   int
	MemBudget int // Native: bound on the join's resident build footprint; 0 = unbudgeted

	// JoinType selects the join's match semantics (zero value: inner).
	// The probe relation is the join's left input.
	JoinType plan.JoinType
	// Strategy forces a physical join strategy; Auto (the zero value)
	// keeps the legacy fanout-driven selection unless Explain engages
	// the planner.
	Strategy plan.Strategy
	// Explain consults the cost-based planner even under Auto and
	// reports the decision in PipelineResult.Plan.
	Explain bool
	// AggValueOff is the 4-byte value column the group-by sums, as an
	// offset into the join's output row (0 = the default 4, the build —
	// or for semi/anti the probe — payload's first word). Validate
	// rejects offsets that dangle off the join type's output width.
	AggValueOff int

	SpillDir     string // Native: comma-separated parent dirs for the out-of-core spill area, tried in order ("" = OS temp)
	SpillWorkers int    // Native: write-behind workers for the spill tier (0 = default)
	NoSpill      bool   // Native: fail with *native.BudgetError instead of spilling

	// Ctx, when non-nil, bounds the run: scans check it at batch
	// boundaries, the native morsel join before each pair claim, and the
	// spill tier at page boundaries. Both commands wire -timeout here.
	Ctx context.Context

	// Pair and A hold the generated workload; Materialize fills them
	// (idempotently), letting callers inspect the relations — catalog
	// statistics, planning — before Run.
	Pair *workload.Pair
	A    *arena.Arena
}

// PipelineResult is the outcome of one pipeline run. NOutput and KeySum
// are the join's totals, recovered from the group-by (every join output
// row lands in exactly one group): NOutput = Σ count, KeySum = Σ
// key·count.
type PipelineResult struct {
	NOutput int
	KeySum  uint64
	Groups  []engine.Group

	Stats   memsim.Stats  // Sim: cycle breakdown of the whole pipeline
	Elapsed time.Duration // Native: wall clock of the whole pipeline

	// Report is the engine's run report, written in place by the run:
	// the join's effective fan-out and recursion depth, and what the
	// spill tier and the hybrid policy did.
	engine.Report

	// Plan is the planner's decision and inputs when it was consulted
	// (Strategy != Auto, or Explain); nil otherwise.
	Plan *plan.Decision
}

// Validate rejects flag combinations that would otherwise execute as a
// silently different query — the caller maps the error to the usage
// exit code (Fatalf). The aggregate offset check depends on the join
// type because semi/anti joins narrow the output row to the probe
// tuple: an -agg offset that is fine for an inner join can dangle off
// the end of a semi join's rows.
func (p *Pipeline) Validate() error {
	if p.Strategy == plan.StreamHash && p.Fanout > 1 {
		return fmt.Errorf("-strategy %v is single-table; -pipeline-fanout %d conflicts (use -strategy partitioned or auto)",
			p.Strategy, p.Fanout)
	}
	if p.Strategy == plan.PartitionedHash && p.Engine == engine.Sim {
		return fmt.Errorf("-strategy partitioned requires -engine native (the simulator executes single-table joins only)")
	}
	tuple := p.Spec.TupleSize
	if tuple < 8 {
		tuple = 8 // the generator's minimum width
	}
	outWidth := 2 * tuple
	if p.JoinType.ProbeOnly() {
		outWidth = tuple
	}
	off := p.AggValueOff
	if off == 0 {
		off = 4
	}
	if off < 4 {
		return fmt.Errorf("-agg offset %d overlaps the group key (must be >= 4)", off)
	}
	if off+4 > outWidth {
		return fmt.Errorf("-agg offset %d needs a %d-byte output row, but a %v join of %d-byte tuples emits %d bytes (semi/anti emit the probe tuple only)",
			off, off+4, p.JoinType, tuple, outWidth)
	}
	return nil
}

// planDecision consults the cost-based planner when a strategy was
// forced or an EXPLAIN was requested, returning nil otherwise (legacy
// fanout-driven selection). plan.Resolve applies the overrides: a forced
// strategy, the simulator's single-table limit, and -fanout pinning the
// partitioned strategy under Auto.
func (p *Pipeline) planDecision() *plan.Decision {
	if p.Strategy == plan.Auto && !p.Explain {
		return nil
	}
	spec := p.Pair.Spec
	dec := plan.Resolve(plan.Request{
		Stats: plan.Stats{
			BuildRows:      spec.NBuild,
			ProbeRows:      spec.NProbe,
			BuildWidth:     spec.TupleSize,
			ProbeWidth:     spec.TupleSize,
			BuildFootprint: native.BuildFootprint(spec.NBuild, spec.TupleSize),
		},
		JoinType:     p.JoinType,
		Budget:       p.MemBudget,
		Forced:       p.Strategy,
		PinnedFanout: p.Fanout,
		Sim:          p.Engine == engine.Sim,
	})
	return &dec
}

// Materialize generates the workload into a fresh arena if it has not
// been generated yet. The arena is sized from the plan — the workload's
// own footprint plus the scratch the compiled pipeline allocates per
// run — rather than a blanket capacity multiplier.
func (p *Pipeline) Materialize() {
	if p.Pair != nil {
		return
	}
	p.A = arena.New(workload.ArenaBytesFor(p.Spec) + p.scratchBytes())
	p.Pair = workload.Generate(p.A, p.Spec)
}

// logical builds the pipeline's Scan ⋈ Scan -> HashAggregate plan over
// the given relations.
func (p *Pipeline) logical(build, probe *storage.Relation) *engine.Node {
	valueOff := p.AggValueOff
	if valueOff == 0 {
		valueOff = 4
	}
	return engine.HashAggregate(
		engine.HashJoinTyped(engine.Scan(build), engine.Scan(probe), p.JoinType),
		valueOff, p.Spec.NBuild)
}

// config is the engine configuration the pipeline runs — and is sized —
// under, but for the arena, memory view and report Run supplies.
func (p *Pipeline) config(strategy plan.Strategy, fanout int) engine.Config {
	return engine.Config{
		Backend:      p.Engine,
		Scheme:       p.Scheme,
		Params:       p.Params,
		Strategy:     strategy,
		Fanout:       fanout,
		Workers:      p.Workers,
		MemBudget:    p.MemBudget,
		SpillDir:     p.SpillDir,
		SpillWorkers: p.SpillWorkers,
		NoSpill:      p.NoSpill,
		Ctx:          p.Ctx,
	}
}

// scratchBytes is the per-run arena scratch of the compiled plan beyond
// the workload itself (engine's Node.ScratchBytes). The arena is sized
// before the relations exist, so the plan is laid over empty relations
// of the workload's schema, the workload's own matches-per-build sizes
// a join's staged output, and its build count bounds the groups.
func (p *Pipeline) scratchBytes() uint64 {
	shape := &storage.Relation{Schema: storage.KeyPayloadSchema(max(p.Spec.TupleSize, 8))}
	return p.logical(shape, shape).ScratchBytes(p.config(p.Strategy, p.Fanout),
		max(p.Spec.MatchesPerBuild, 1), p.Spec.NBuild)
}

// Run executes the pipeline on the configured backend and validates the
// derived join totals against the workload's ground truth.
func (p *Pipeline) Run() (res PipelineResult, err error) {
	p.Materialize()
	strategy, fanout := plan.Auto, p.Fanout
	if res.Plan = p.planDecision(); res.Plan != nil {
		strategy, fanout = res.Plan.Strategy, res.Plan.Fanout
	}
	cfg := p.config(strategy, fanout)
	cfg.A, cfg.Report = p.A, &res.Report
	if p.Engine == engine.Sim {
		hier := p.Hier
		if hier == (memsim.Config{}) {
			hier = memsim.SmallConfig()
		}
		cfg.Mem = vmem.New(p.A, memsim.NewSim(hier))
	}
	out, err := engine.Execute(p.logical(p.Pair.Build, p.Pair.Probe), cfg)
	if err != nil {
		return res, err
	}
	res.NOutput, res.KeySum, res.Groups = out.NOutput, out.KeySum, out.Groups
	if p.Engine == engine.Sim {
		res.Stats = cfg.Mem.S.Stats()
	} else {
		res.Elapsed = out.Elapsed
	}
	wantN, wantSum := p.Pair.Expected(p.JoinType)
	if res.NOutput != wantN || res.KeySum != wantSum {
		return res, fmt.Errorf("%v %v result mismatch: (%d, %d) vs (%d, %d) expected",
			p.Engine, p.JoinType, res.NOutput, res.KeySum, wantN, wantSum)
	}
	return res, nil
}
