package hashjoin

// Tests for the memory governor: resident-Env stability (per-run
// scratch is scoped and reclaimed, so arena usage does not creep across
// runs), graceful budget degradation (a budget below the natural build
// footprint forces recursive re-partitioning without changing the
// result), and graceful exhaustion (an infeasible budget surfaces as an
// error — never a panic, never a leaked worker goroutine).

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/native"
	"hashjoin/internal/workload"
)

// TestRunPipelineArenaStable is the resident-Env contract: ten
// consecutive RunPipeline calls on one Env leave arena Used() exactly
// where the first run left it, and every run produces byte-identical
// groups — on both engines, streaming and morsel.
func TestRunPipelineArenaStable(t *testing.T) {
	spec := workload.Spec{NBuild: 400, TupleSize: 20, MatchesPerBuild: 2, PctMatched: 90, Seed: 41}
	for _, tc := range []struct {
		name   string
		engine Engine
		fanout int
	}{
		{"sim", EngineSim, 1},
		{"native-stream", EngineNative, 1},
		{"native-morsel", EngineNative, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, build, probe, pair := pipelineTestEnv(t, spec)
			run := func() PipelineResult {
				return mustRunPipeline(t, env, build, probe,
					WithEngine(tc.engine), WithPipelineFanout(tc.fanout),
					WithPipelineWorkers(2), WithAggregation(4, spec.NBuild))
			}
			first := run()
			if first.NOutput != pair.ExpectedMatches {
				t.Fatalf("NOutput = %d, want %d", first.NOutput, pair.ExpectedMatches)
			}
			used := env.mem.A.Used()
			for i := 2; i <= 10; i++ {
				res := run()
				if got := env.mem.A.Used(); got != used {
					t.Fatalf("run %d: arena Used() = %d, want %d (scratch leaked)", i, got, used)
				}
				if !reflect.DeepEqual(res.Groups, first.Groups) {
					t.Fatalf("run %d: groups differ from run 1", i)
				}
			}
		})
	}
}

// TestRunPipelineBudgetRepartitions sets a budget below the build
// side's natural footprint: the native streaming join must degrade to
// the partitioned strategy and re-partition recursively, with groups
// byte-identical to the unbudgeted run.
func TestRunPipelineBudgetRepartitions(t *testing.T) {
	spec := workload.Spec{NBuild: 30000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 90, Seed: 42}
	env, build, probe, pair := pipelineTestEnv(t, spec)

	free := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild))
	if free.JoinFanout != 1 || free.JoinRecursionDepth != 0 {
		t.Fatalf("unbudgeted run should stream: fanout %d, depth %d",
			free.JoinFanout, free.JoinRecursionDepth)
	}

	budget := 256 << 10
	if native.BuildFootprint(spec.NBuild, spec.TupleSize) <= budget {
		t.Fatalf("test budget %d does not undercut the build footprint %d",
			budget, native.BuildFootprint(spec.NBuild, spec.TupleSize))
	}
	tight := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild),
		WithPipelineMemBudget(budget), WithPipelineWorkers(4))
	if tight.JoinRecursionDepth < 1 {
		t.Errorf("budget %d should force recursive re-partitioning, depth = %d",
			budget, tight.JoinRecursionDepth)
	}
	if tight.NOutput != pair.ExpectedMatches || tight.KeySum != pair.KeySum {
		t.Errorf("budgeted run: got (%d, %d), want (%d, %d)",
			tight.NOutput, tight.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if !reflect.DeepEqual(free.Groups, tight.Groups) {
		t.Error("budgeted groups differ from unbudgeted groups")
	}
}

// waitForGoroutines retries until the goroutine count is back at (or
// below) base, failing the test if workers are still alive after 2s.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d alive, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunPipelineBudgetInfeasible joins a fully skewed build side (one
// key, one hash code — no partitioning can split it) under a budget it
// cannot meet, with the out-of-core tier disabled: RunPipeline must
// return a *native.BudgetError, not panic, and every morsel worker must
// exit. (With spilling left on, the same join completes — see
// TestRunPipelineSpillsToDisk.)
func TestRunPipelineBudgetInfeasible(t *testing.T) {
	spec := workload.Spec{NBuild: 4000, TupleSize: 20, MatchesPerBuild: 1, Skew: 4000, Seed: 43}
	env, build, probe, _ := pipelineTestEnv(t, spec)
	base := runtime.NumGoroutine()

	_, err := env.RunPipeline(build, probe,
		WithEngine(EngineNative), WithPipelineFanout(4),
		WithPipelineWorkers(4), WithPipelineMemBudget(4<<10),
		WithPipelineNoSpill())
	var be *native.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *native.BudgetError", err)
	}
	if be.Budget != 4<<10 || be.Need <= be.Budget {
		t.Errorf("implausible budget error: %+v", be)
	}
	waitForGoroutines(t, base)

	// The Env survives: the failed run's scratch was scoped, so an
	// unbudgeted retry on the same Env succeeds.
	if _, err := env.RunPipeline(build, probe, WithEngine(EngineNative)); err != nil {
		t.Fatalf("retry after budget failure: %v", err)
	}
}

// TestRunPipelineSpillsToDisk is the final tier of the degradation
// ladder end to end: a fully skewed join that recursion cannot split,
// under an infeasible budget, completes out of core with groups
// byte-identical to the unbudgeted run — and repeated spilling runs on
// one Env keep arena usage stable and leave no files behind.
func TestRunPipelineSpillsToDisk(t *testing.T) {
	spec := workload.Spec{NBuild: 1200, TupleSize: 20, MatchesPerBuild: 1, Skew: 1200, Seed: 45}
	env := NewEnv(WithSmallHierarchy(), WithCapacity(workload.ArenaBytesFor(spec)*3+(1<<20)))
	pair := workload.Generate(env.mem.A, spec)
	build := &Relation{rel: pair.Build, env: env}
	probe := &Relation{rel: pair.Probe, env: env}
	dir := t.TempDir()
	base := runtime.NumGoroutine()

	free := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild))

	spillOpts := []PipelineOption{
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild),
		WithPipelineFanout(4), WithPipelineWorkers(4),
		WithPipelineMemBudget(4 << 10),
		WithPipelineSpillDir(dir), WithPipelineSpillWorkers(2),
	}
	first := mustRunPipeline(t, env, build, probe, spillOpts...)
	if first.SpilledPartitions == 0 || first.SpillBytesWritten == 0 || first.SpillBytesRead == 0 {
		t.Fatalf("infeasible skewed budget did not spill: %+v", first)
	}
	if first.NOutput != pair.ExpectedMatches || first.KeySum != pair.KeySum {
		t.Fatalf("spilled run: got (%d, %d), want (%d, %d)",
			first.NOutput, first.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if !reflect.DeepEqual(free.Groups, first.Groups) {
		t.Fatal("spilled groups differ from unbudgeted groups")
	}

	used := env.mem.A.Used()
	for i := 2; i <= 4; i++ {
		res := mustRunPipeline(t, env, build, probe, spillOpts...)
		if got := env.mem.A.Used(); got != used {
			t.Fatalf("run %d: arena Used() = %d, want %d (spill scratch leaked)", i, got, used)
		}
		if !reflect.DeepEqual(res.Groups, first.Groups) {
			t.Fatalf("run %d: groups differ from run 1", i)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 0 {
			t.Fatalf("run %d: orphaned spill files: %v %v", i, ents, err)
		}
	}
	waitForGoroutines(t, base)
}

// TestRunPipelineArenaExhaustionReturnsError drives the Env's own
// allocation budget (WithArenaBudget's mechanism) below what a run
// needs: the pipeline must fail with a *arena.OOMError carrying the
// usage breakdown, the scoped scratch must be rolled back, and lifting
// the budget must make the same Env work again. An aggregate over a
// native join allocates one 8-byte row per join worker from the arena,
// so the budget leaves room for the first worker's row alone: that
// allocation succeeds and must be rolled back with the rest.
func TestRunPipelineArenaExhaustionReturnsError(t *testing.T) {
	spec := workload.Spec{NBuild: 2000, TupleSize: 24, MatchesPerBuild: 2, Seed: 44}
	env, build, probe, pair := pipelineTestEnv(t, spec)
	base := runtime.NumGoroutine()

	mark := env.mem.A.Used()
	env.mem.A.SetBudget(mark + 8) // one worker's row
	_, err := env.RunPipeline(build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild),
		WithPipelineFanout(4), WithPipelineWorkers(2))
	var oom *arena.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want *arena.OOMError", err)
	}
	if oom.Budget != mark+8 {
		t.Errorf("OOMError.Budget = %d, want %d", oom.Budget, mark+8)
	}
	if got := env.mem.A.Used(); got != mark {
		t.Errorf("failed run left Used() = %d, want %d (scope not released)", got, mark)
	}
	waitForGoroutines(t, base)

	env.mem.A.SetBudget(0) // lift the ceiling
	res := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild))
	if res.NOutput != pair.ExpectedMatches {
		t.Fatalf("post-recovery run: NOutput = %d, want %d", res.NOutput, pair.ExpectedMatches)
	}
}

// TestJoinArenaBudgetOption covers the public WithArenaBudget path on
// the simulator backend: exhaustion surfaces as an error from Env.Join,
// and the failed join's scratch is reclaimed.
func TestJoinArenaBudgetOption(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20), WithArenaBudget(1<<20))
	if got := env.mem.A.Budget(); got != 1<<20 {
		t.Fatalf("WithArenaBudget not applied: Budget() = %d", got)
	}
	build := env.NewRelation(60)
	probe := env.NewRelation(60)
	fillPair(build, probe, 2000, 0, 60)
	mark := env.mem.A.Used()
	env.mem.A.SetBudget(mark + (4 << 10)) // relations fit; join scratch will not

	_, err := env.Join(build, probe, WithScheme(Group))
	var oom *arena.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want *arena.OOMError", err)
	}
	if got := env.mem.A.Used(); got != mark {
		t.Errorf("failed join left Used() = %d, want %d", got, mark)
	}

	env.mem.A.SetBudget(0)
	res := mustJoin(t, env, build, probe, WithScheme(Group))
	if res.NOutput != 4000 {
		t.Fatalf("post-recovery join: NOutput = %d, want 4000", res.NOutput)
	}
}

// TestRunPipelineValidatesParams pins the API-boundary validation:
// negative G or D is a configuration error, zero fields select backend
// defaults and run to the correct result on both engines.
func TestRunPipelineValidatesParams(t *testing.T) {
	spec := workload.Spec{NBuild: 200, TupleSize: 16, MatchesPerBuild: 2, Seed: 45}
	env, build, probe, pair := pipelineTestEnv(t, spec)

	if _, err := env.RunPipeline(build, probe, WithPipelineParams(Params{G: -1})); err == nil {
		t.Error("negative G accepted")
	}
	if _, err := env.RunPipeline(build, probe, WithPipelineParams(Params{D: -2})); err == nil {
		t.Error("negative D accepted")
	}
	if _, err := env.RunPipeline(build, probe, WithPipelineMemBudget(-1)); err == nil {
		t.Error("negative MemBudget accepted")
	}
	for _, eng := range []Engine{EngineSim, EngineNative} {
		for _, p := range []Params{{}, {G: 7}, {D: 3}} {
			res := mustRunPipeline(t, env, build, probe,
				WithEngine(eng), WithPipelineScheme(Pipelined), WithPipelineParams(p))
			if res.NOutput != pair.ExpectedMatches || res.KeySum != pair.KeySum {
				t.Errorf("%v %+v: got (%d, %d), want (%d, %d)",
					eng, p, res.NOutput, res.KeySum, pair.ExpectedMatches, pair.KeySum)
			}
		}
	}
}
