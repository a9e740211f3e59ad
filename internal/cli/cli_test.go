package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hashjoin/internal/arena"

	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/memsim"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/sched"
	"hashjoin/internal/spill"
	"hashjoin/internal/workload"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in      string
		want    engine.Backend
		wantErr bool
	}{
		{"sim", engine.Sim, false},
		{"native", engine.Native, false},
		{"", 0, true},
		{"SIM", 0, true},
		{"hardware", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseEngine(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseHierarchy(t *testing.T) {
	cases := []struct {
		in      string
		want    memsim.Config
		wantErr bool
	}{
		{"small", memsim.SmallConfig(), false},
		{"es40", memsim.ES40Config(), false},
		{"", memsim.Config{}, true},
		{"ES40", memsim.Config{}, true},
		{"big", memsim.Config{}, true},
	}
	for _, tc := range cases {
		got, err := ParseHierarchy(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseHierarchy(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseHierarchy(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseScheme(t *testing.T) {
	cases := []struct {
		in      string
		want    core.Scheme
		wantErr bool
	}{
		{"baseline", core.SchemeBaseline, false},
		{"simple", core.SchemeSimple, false},
		{"group", core.SchemeGroup, false},
		{"pipelined", core.SchemePipelined, false},
		{"plan", 0, true}, // plan is only valid through ParsePlanScheme
		{"combined", 0, true},
		{"Group", 0, true},
		{"", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseScheme(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseScheme(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParsePlanScheme(t *testing.T) {
	if _, usePlan, err := ParsePlanScheme("plan"); err != nil || !usePlan {
		t.Errorf("ParsePlanScheme(plan) = usePlan %v, err %v; want true, nil", usePlan, err)
	}
	if s, usePlan, err := ParsePlanScheme("group"); err != nil || usePlan || s != core.SchemeGroup {
		t.Errorf("ParsePlanScheme(group) = (%v, %v, %v); want (group, false, nil)", s, usePlan, err)
	}
	if _, _, err := ParsePlanScheme("bogus"); err == nil {
		t.Error("ParsePlanScheme(bogus): expected error")
	}
}

func TestParseSchemeList(t *testing.T) {
	cases := []struct {
		in      string
		want    []core.Scheme
		wantErr bool
	}{
		{"baseline,group,pipelined", []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined}, false},
		{" group , baseline ", []core.Scheme{core.SchemeGroup, core.SchemeBaseline}, false},
		{"group", []core.Scheme{core.SchemeGroup}, false},
		{"group,bogus", nil, true},
		{"", nil, true},
		{"group,,baseline", nil, true},
	}
	for _, tc := range cases {
		got, err := ParseSchemeList(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseSchemeList(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSchemeList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestFatalfExitCodes pins the exit-code convention: 2 for usage
// errors, 1 for runtime failures.
func TestFatalfExitCodes(t *testing.T) {
	var code int
	osExit = func(c int) { code = c }
	defer func() { osExit = os.Exit }()

	Fatalf("prog", "bad flag %q", "x")
	if code != 2 {
		t.Errorf("Fatalf exit code = %d, want 2", code)
	}
	Dief("prog", "runtime failure")
	if code != 1 {
		t.Errorf("Dief exit code = %d, want 1", code)
	}
}

// TestValidateRefusesConflict checks that Validate refuses a strategy
// request that contradicts itself before the workload exists, so a
// front end exits with the usage code without generating the data: the
// Pipeline is never materialized.
func TestValidateRefusesConflict(t *testing.T) {
	spec := workload.Spec{NBuild: 20000, TupleSize: 20, MatchesPerBuild: 1, Seed: 1}
	for _, tc := range []struct {
		name     string
		backend  engine.Backend
		strategy plan.Strategy
		fanout   int
	}{
		{"stream beside fanout 8", engine.Native, plan.StreamHash, 8},
		{"partitioned on the simulator", engine.Sim, plan.PartitionedHash, 0},
	} {
		p := &Pipeline{Engine: tc.backend, Spec: spec, Strategy: tc.strategy, Fanout: tc.fanout}
		if err := p.Validate(); !errors.Is(err, plan.ErrConflict) {
			t.Errorf("%s: Validate = %v, want plan.ErrConflict", tc.name, err)
		}
		if p.Pair != nil || p.A != nil {
			t.Errorf("%s: Validate generated the workload", tc.name)
		}
	}
	ok := &Pipeline{Engine: engine.Native, Spec: spec, Strategy: plan.PartitionedHash, Fanout: 8}
	if err := ok.Validate(); err != nil {
		t.Errorf("partitioned at fanout 8: Validate = %v, want nil", err)
	}
}

// TestPipelineBothEngines runs the shared pipeline on both backends and
// checks they agree with each other and the ground truth (Run validates
// against ExpectedMatches/KeySum internally).
func TestPipelineBothEngines(t *testing.T) {
	spec := workload.Spec{NBuild: 500, TupleSize: 20, MatchesPerBuild: 2, PctMatched: 80, Seed: 21}
	var results []PipelineResult
	for _, backend := range []engine.Backend{engine.Sim, engine.Native} {
		p := Pipeline{
			Engine: backend,
			Spec:   spec,
			Scheme: core.SchemeGroup,
			Params: core.DefaultParams(),
			Fanout: 1,
		}
		res, err := p.Run()
		if err != nil {
			t.Fatalf("%v pipeline: %v", backend, err)
		}
		if backend == engine.Sim && res.Stats.Total() == 0 {
			t.Errorf("sim pipeline reported zero cycles")
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0].Groups, results[1].Groups) {
		t.Fatalf("sim and native pipelines produced different groups (%d vs %d)",
			len(results[0].Groups), len(results[1].Groups))
	}
}

// TestExplainKeepsPinnedFanout runs one pipeline with a pinned fan-out
// where the planner would partition on its own at a different width:
// the pin is the width of the join, and the decision the run reports —
// what hjquery's -explain prints — names it and the pin.
func TestExplainKeepsPinnedFanout(t *testing.T) {
	spec := workload.Spec{NBuild: 20000, TupleSize: 100, MatchesPerBuild: 1, Seed: 24}
	p := Pipeline{Engine: engine.Native, Spec: spec, Scheme: core.SchemeGroup, Fanout: 32, Workers: 2}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinFanout != 32 || res.Plan == nil || res.Plan.Fanout != 32 || !strings.Contains(res.Plan.Reason, "pinned fanout 32") {
		t.Fatalf("JoinFanout %d, plan %+v; want 32 both and a reason naming the pin", res.JoinFanout, res.Plan)
	}
}

// TestExplainKeepsFanoutRule runs pipelines where the planner would
// partition a 20 000-row build on its own: the decision the run reports
// is the one that ran — the stream at a named fan-out 1, unbudgeted;
// the budget governor's partitioning at fan-out 1, budgeted; the
// planner's width with no fan-out named — with the planner's
// preference named in its reason.
func TestExplainKeepsFanoutRule(t *testing.T) {
	spec := workload.Spec{NBuild: 20000, TupleSize: 100, MatchesPerBuild: 1, Seed: 25}
	for _, tc := range []struct {
		name           string
		fanout, budget int
		strategy       plan.Strategy
		joinFanout     int
		reasonContains string
	}{
		{"fanout 1", 1, 0, plan.StreamHash, 1, "planner preferred partitioned"},
		{"fanout 1, budgeted", 1, 300_000, plan.PartitionedHash, 1, "splits the one pair recursively"},
		{"fanout 0, budgeted", 0, 300_000, plan.PartitionedHash, 16, "exceeds budget"},
	} {
		p := Pipeline{Engine: engine.Native, Spec: spec, Scheme: core.SchemeGroup,
			Fanout: tc.fanout, MemBudget: tc.budget, Workers: 2}
		res, err := p.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.JoinFanout != tc.joinFanout || res.Plan == nil || res.Plan.Strategy != tc.strategy ||
			res.Plan.Fanout != res.JoinFanout || !strings.Contains(res.Plan.Reason, tc.reasonContains) {
			t.Errorf("%s: reports %+v for a run at fan-out %d; want %v at fan-out %d, reason naming %q",
				tc.name, res.Plan, res.JoinFanout, tc.strategy, tc.joinFanout, tc.reasonContains)
		}
	}
}

// TestPipelineMismatchError forces a result mismatch by corrupting the
// ground truth, checking Run's validation path.
func TestPipelineMismatchError(t *testing.T) {
	p := Pipeline{
		Engine: engine.Native,
		Spec:   workload.Spec{NBuild: 100, TupleSize: 16, MatchesPerBuild: 1, Seed: 22},
		Scheme: core.SchemeGroup,
		Fanout: 1,
	}
	p.Materialize()
	p.Pair.ExpectedMatches++ // corrupt
	if _, err := p.Run(); err == nil {
		t.Fatal("expected a result-mismatch error")
	}
}

func TestDiePipelineBudgetBreakdown(t *testing.T) {
	var code int
	var buf bytes.Buffer
	osExit = func(c int) { code = c }
	stderr = &buf
	defer func() { osExit, stderr = os.Exit, os.Stderr }()

	err := fmt.Errorf("scheme group: %w",
		&native.BudgetError{Budget: 4096, Need: 112000, Depth: 8})
	DiePipeline("prog", err)
	if code != ExitMemory {
		t.Errorf("DiePipeline exit code = %d, want %d (memory)", code, ExitMemory)
	}
	out := buf.String()
	for _, want := range []string{
		"scheme group",
		"irreducible pair needs ~112000",
		"depth 8",
		"-no-spill",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr missing %q:\n%s", want, out)
		}
	}
}

func TestDiePipelineOOMBreakdown(t *testing.T) {
	var code int
	var buf bytes.Buffer
	osExit = func(c int) { code = c }
	stderr = &buf
	defer func() { osExit, stderr = os.Exit, os.Stderr }()

	DiePipeline("prog", &arena.OOMError{
		Need: 4096, Align: 64, Used: 60000, Cap: 65536,
		Durable: 40000, ScopeHeld: []uint64{12000, 8000},
	})
	if code != ExitMemory {
		t.Errorf("DiePipeline exit code = %d, want %d (memory)", code, ExitMemory)
	}
	out := buf.String()
	for _, want := range []string{
		"60000 bytes used of 65536",
		"40000 bytes durable",
		"2 open scope(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr missing %q:\n%s", want, out)
		}
	}
}

func TestPipelineErrorDetailPlainError(t *testing.T) {
	if lines := PipelineErrorDetail(fmt.Errorf("plain failure")); len(lines) != 0 {
		t.Errorf("plain error produced detail lines: %v", lines)
	}
}

// TestExitCodeFor pins the exit-code taxonomy: cancellation and memory
// failures are distinguishable from each other and from generic
// failures without parsing stderr.
func TestExitCodeFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"plain", fmt.Errorf("boom"), ExitFailure},
		{"mismatch", fmt.Errorf("result mismatch"), ExitFailure},
		{"budget", &native.BudgetError{Budget: 1, Need: 2, Depth: 8}, ExitMemory},
		{"oom", &arena.OOMError{Need: 1, Cap: 1}, ExitMemory},
		{"wrapped oom", fmt.Errorf("run: %w", &arena.OOMError{Need: 1, Cap: 1}), ExitMemory},
		{"raw ctx", context.Canceled, ExitCancelled},
		{"deadline", context.DeadlineExceeded, ExitCancelled},
		{"cancel error", &native.CancelError{Cause: context.DeadlineExceeded}, ExitCancelled},
		{"shed too-large", &sched.AdmissionError{Reason: sched.TooLarge, Planned: 2, Limit: 1}, ExitMemory},
		{"shed queue-full", &sched.AdmissionError{Reason: sched.QueueFull}, ExitFailure},
		{"shed draining", &sched.AdmissionError{Reason: sched.Draining}, ExitFailure},
		{"shed timeout", &sched.AdmissionError{Reason: sched.Timeout, Cause: context.DeadlineExceeded}, ExitCancelled},
		// Spill unavailability is a retryable failure, not a memory-class
		// one: the query was fine, the host's disks were not.
		{"spill unavailable", spill.Unavailable("/a,/b", nil), ExitFailure},
		// A refused plan shape is the caller's to fix: status=usage on the
		// hjserve wire, never failure or internal.
		{"unsupported plan", fmt.Errorf("%w: a filter over a hash join", engine.ErrUnsupportedPlan), ExitUsage},
	}
	for _, tc := range cases {
		if got := ExitCodeFor(tc.err); got != tc.want {
			t.Errorf("ExitCodeFor(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestStatusName pins the wire-protocol status words onto the exit
// codes, both directions of the hjserve mapping.
func TestStatusName(t *testing.T) {
	want := map[int]string{
		ExitOK:        "ok",
		ExitFailure:   "failure",
		ExitUsage:     "usage",
		ExitMemory:    "memory",
		ExitCancelled: "cancelled",
		ExitInternal:  "internal",
		ExitProtocol:  "protocol",
		99:            "failure",
	}
	for code, name := range want {
		if got := StatusName(code); got != name {
			t.Errorf("StatusName(%d) = %q, want %q", code, got, name)
		}
	}
}

// TestPipelineErrorDetailAdmission checks each shed reason yields a
// diagnostic line.
func TestPipelineErrorDetailAdmission(t *testing.T) {
	for _, reason := range []sched.Reason{sched.TooLarge, sched.QueueFull, sched.Timeout, sched.Draining} {
		lines := PipelineErrorDetail(&sched.AdmissionError{Reason: reason, Planned: 2, Limit: 1})
		if len(lines) == 0 {
			t.Errorf("no detail for shed reason %v", reason)
		}
	}
}

// TestDiePipelineCancelBreakdown checks a deadline failure exits with
// the cancellation code and prints the progress detail.
func TestDiePipelineCancelBreakdown(t *testing.T) {
	var code int
	var buf bytes.Buffer
	osExit = func(c int) { code = c }
	stderr = &buf
	defer func() { osExit, stderr = os.Exit, os.Stderr }()

	DiePipeline("prog", &native.CancelError{
		Cause: context.DeadlineExceeded, PairsDone: 3, PairsTotal: 8,
		RowsOut: 120, Elapsed: 250 * time.Millisecond,
	})
	if code != ExitCancelled {
		t.Errorf("DiePipeline exit code = %d, want %d (cancelled)", code, ExitCancelled)
	}
	out := buf.String()
	for _, want := range []string{"3 of 8 morsels joined", "-timeout"} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr missing %q:\n%s", want, out)
		}
	}
}

// TestPipelineRunTimeout drives the shared pipeline with an expired
// context on both backends: the run must fail with a cancellation-class
// error, never report a result mismatch.
func TestPipelineRunTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []engine.Backend{engine.Sim, engine.Native} {
		p := Pipeline{
			Engine: backend,
			Spec:   workload.Spec{NBuild: 300, TupleSize: 16, MatchesPerBuild: 1, Seed: 5},
			Scheme: core.SchemeGroup,
			Fanout: 1,
			Ctx:    ctx,
		}
		_, err := p.Run()
		if err == nil {
			t.Fatalf("%v: cancelled run returned nil error", backend)
		}
		if ExitCodeFor(err) != ExitCancelled {
			t.Errorf("%v: ExitCodeFor(%v) = %d, want %d", backend, err, ExitCodeFor(err), ExitCancelled)
		}
	}
}

// TestPipelineSpillRun drives the shared pipeline through the spill
// tier: an irreducibly skewed workload under an infeasible budget must
// validate and report spill I/O.
func TestPipelineSpillRun(t *testing.T) {
	p := &Pipeline{
		Engine: engine.Native,
		Spec:   workload.Spec{NBuild: 800, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Skew: 800, Seed: 7},
		Scheme: core.SchemeGroup,
		Fanout: 2, Workers: 2,
		MemBudget: 4 << 10,
		SpillDir:  t.TempDir(),
	}
	res, err := p.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SpilledPartitions == 0 || res.SpillBytesWritten == 0 {
		t.Fatalf("skewed budgeted run did not spill: %+v", res)
	}
}

// TestScratchBytesBoundsRun pins scratchBytes against what a run really
// allocates: with the arena's budget set to the workload plus exactly
// the estimate, a run whose scratch high-water mark exceeds it fails
// with an out-of-memory error. Tuples are wide enough that the join's
// rows would dominate the estimate's fixed slack if it sized them whole,
// so the figure must follow the emitted row width: key and value under
// the native hash join, whichever strategy the join's planner picks
// where no fan-out is named.
func TestScratchBytesBoundsRun(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 1000, MatchesPerBuild: 8, Skew: 4, Seed: 23}
	estimate := map[string]uint64{}
	for _, tc := range []struct {
		name   string
		engine engine.Backend
		jt     plan.JoinType
		fanout int
	}{
		{"inner fanout=1", engine.Native, plan.Inner, 1},
		{"inner fanout=4", engine.Native, plan.Inner, 4},
		{"semi fanout=1", engine.Native, plan.LeftSemi, 1},
		{"semi fanout=4", engine.Native, plan.LeftSemi, 4},
		{"inner planner", engine.Native, plan.Inner, 0},
		{"semi planner", engine.Native, plan.LeftSemi, 0},
		{"inner sim", engine.Sim, plan.Inner, 1},
		{"semi sim", engine.Sim, plan.LeftSemi, 1},
	} {
		p := Pipeline{
			Engine: tc.engine, Spec: spec, Scheme: core.SchemeGroup,
			JoinType: tc.jt, Fanout: tc.fanout, Workers: 2,
		}
		p.Materialize()
		estimate[tc.name] = p.scratchBytes()
		p.A.SetBudget(p.A.Used() + estimate[tc.name])
		if _, err := p.Run(); err != nil {
			t.Errorf("%s: run inside its %d-byte scratch estimate: %v", tc.name, estimate[tc.name], err)
		}
	}
	if estimate["inner planner"] != estimate["inner fanout=1"] || estimate["semi planner"] != estimate["semi fanout=1"] {
		t.Errorf("an unbudgeted run the planner decides is not sized like a named stream: %v", estimate)
	}
}
