package hashjoin

// Public-API tests of the unified operator pipeline: the same Env, the
// same relations, the same plan — only WithEngine differs — must yield
// identical logical results on the simulator and on the host hardware.

import (
	"reflect"
	"testing"

	"hashjoin/internal/workload"
)

func pipelineTestEnv(t *testing.T, spec workload.Spec) (*Env, *Relation, *Relation, *workload.Pair) {
	t.Helper()
	env := NewEnv(WithSmallHierarchy(), WithCapacity(workload.ArenaBytesFor(spec)*3))
	pair := workload.Generate(env.mem.A, spec)
	return env,
		&Relation{rel: pair.Build, env: env},
		&Relation{rel: pair.Probe, env: env},
		pair
}

// mustRunPipeline fails the test on any pipeline error.
func mustRunPipeline(tb testing.TB, env *Env, build, probe *Relation, opts ...PipelineOption) PipelineResult {
	tb.Helper()
	res, err := env.RunPipeline(build, probe, opts...)
	if err != nil {
		tb.Fatalf("RunPipeline: %v", err)
	}
	return res
}

func TestRunPipelineJoinParity(t *testing.T) {
	spec := workload.Spec{NBuild: 600, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 85, Seed: 31}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		env, build, probe, pair := pipelineTestEnv(t, spec)
		for _, eng := range []Engine{EngineSim, EngineNative} {
			res := mustRunPipeline(t, env, build, probe,
				WithEngine(eng), WithPipelineScheme(scheme))
			if res.NOutput != pair.ExpectedMatches || res.KeySum != pair.KeySum {
				t.Errorf("%v/%v: got (%d, %d), want (%d, %d)",
					eng, scheme, res.NOutput, res.KeySum, pair.ExpectedMatches, pair.KeySum)
			}
		}
	}
}

func TestRunPipelineAggregationParity(t *testing.T) {
	spec := workload.Spec{NBuild: 500, TupleSize: 24, MatchesPerBuild: 2, Seed: 32}
	env, build, probe, pair := pipelineTestEnv(t, spec)

	sim := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineSim), WithAggregation(4, spec.NBuild))
	nat := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild))

	if len(sim.Groups) == 0 || !reflect.DeepEqual(sim.Groups, nat.Groups) {
		t.Fatalf("groups differ between engines (sim %d, native %d)", len(sim.Groups), len(nat.Groups))
	}
	if sim.NOutput != pair.ExpectedMatches || nat.NOutput != pair.ExpectedMatches {
		t.Fatalf("NOutput sim=%d native=%d, want %d", sim.NOutput, nat.NOutput, pair.ExpectedMatches)
	}
	if sim.Stats.Total() == 0 {
		t.Error("sim pipeline reported zero cycles")
	}
	if nat.Elapsed <= 0 {
		t.Error("native pipeline reported zero elapsed time")
	}
}

func TestRunPipelineFilter(t *testing.T) {
	spec := workload.Spec{NBuild: 400, TupleSize: 20, MatchesPerBuild: 2, Seed: 33}
	env, build, probe, pair := pipelineTestEnv(t, spec)

	// A full-range filter must not change the result.
	full := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithBuildFilter(0, ^uint32(0)))
	if full.NOutput != pair.ExpectedMatches {
		t.Fatalf("full-range filter: NOutput = %d, want %d", full.NOutput, pair.ExpectedMatches)
	}
	// A half-range filter must shrink it identically on both engines.
	sim := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineSim), WithBuildFilter(0, 1<<31))
	nat := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithBuildFilter(0, 1<<31))
	if sim.NOutput == 0 || sim.NOutput >= pair.ExpectedMatches {
		t.Fatalf("half-range filter should be selective, got %d of %d", sim.NOutput, pair.ExpectedMatches)
	}
	if sim.NOutput != nat.NOutput || sim.KeySum != nat.KeySum {
		t.Fatalf("filtered results differ: sim (%d, %d) vs native (%d, %d)",
			sim.NOutput, sim.KeySum, nat.NOutput, nat.KeySum)
	}
}

func TestRunPipelineMorsel(t *testing.T) {
	spec := workload.Spec{NBuild: 800, TupleSize: 20, MatchesPerBuild: 2, Seed: 34}
	env, build, probe, pair := pipelineTestEnv(t, spec)

	sim := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineSim), WithAggregation(4, spec.NBuild))
	nat := mustRunPipeline(t, env, build, probe,
		WithEngine(EngineNative), WithAggregation(4, spec.NBuild),
		WithPipelineFanout(8), WithPipelineWorkers(4))
	if nat.JoinFanout != 8 {
		t.Errorf("JoinFanout = %d, want 8", nat.JoinFanout)
	}
	if !reflect.DeepEqual(sim.Groups, nat.Groups) {
		t.Fatalf("morsel-mode groups differ from sim (sim %d, native %d)", len(sim.Groups), len(nat.Groups))
	}
	if nat.NOutput != pair.ExpectedMatches || nat.KeySum != pair.KeySum {
		t.Fatalf("morsel pipeline: got (%d, %d), want (%d, %d)",
			nat.NOutput, nat.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
}

func TestRunPipelineForeignRelationPanics(t *testing.T) {
	spec := workload.Spec{NBuild: 16, TupleSize: 16, MatchesPerBuild: 1, Seed: 35}
	env1, build, _, _ := pipelineTestEnv(t, spec)
	_, _, probe2, _ := pipelineTestEnv(t, spec)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for relations from different Envs")
		}
	}()
	env1.RunPipeline(build, probe2) //nolint:errcheck // must panic before returning
}

// TestPipelinePlanMatchesRun ties the decision a native run reports to
// the join it ran, including where the relation the join reads is not
// the one the caller passed: a 20 000-row build filtered down to a
// handful of rows, which fits any budget and streams. For every row the
// reported fan-out is the one that ran, a reported stream ran as one
// (no resident, spilled or demoted pair, no recursion), and the stats
// count the build the join read. Unfiltered, a named fan-out 3 is
// reported as the 4 it runs at.
func TestPipelinePlanMatchesRun(t *testing.T) {
	spec := workload.Spec{NBuild: 20000, TupleSize: 40, MatchesPerBuild: 2, PctMatched: 100, Seed: 3}
	env, build, probe, _ := pipelineTestEnv(t, spec)
	const lo, hi = 0, 1 << 19
	kept := 0
	for _, k := range build.rel.Keys() {
		if k >= lo && k <= hi {
			kept++
		}
	}
	if kept == 0 || kept > 64 {
		t.Fatalf("the filter keeps %d of %d build rows; the test wants a handful", kept, spec.NBuild)
	}
	filter := WithBuildFilter(lo, hi)
	ref := map[bool]PipelineResult{ // by filtered: the simulator's stream
		true:  mustRunPipeline(t, env, build, probe, WithEngine(EngineSim), filter),
		false: mustRunPipeline(t, env, build, probe, WithEngine(EngineSim)),
	}
	for _, tc := range []struct {
		name      string
		filtered  bool
		opts      []PipelineOption
		buildRows int
		strategy  Strategy
		fanout    int
	}{
		{"filtered, fanout 1, budgeted", true, []PipelineOption{WithPipelineFanout(1), WithPipelineMemBudget(65536)}, kept, StrategyStream, 1},
		{"filtered, none named, budgeted", true, []PipelineOption{WithPipelineFanout(0), WithPipelineMemBudget(65536)}, kept, StrategyStream, 1},
		{"filtered, none named", true, []PipelineOption{WithPipelineFanout(0)}, kept, StrategyStream, 1},
		{"fanout 3", false, []PipelineOption{WithPipelineFanout(3)}, spec.NBuild, StrategyPartitioned, 4},
	} {
		opts := append([]PipelineOption{WithEngine(EngineNative), WithPipelineWorkers(2),
			WithPipelineSpillDir(t.TempDir())}, tc.opts...)
		if tc.filtered {
			opts = append(opts, filter)
		}
		res := mustRunPipeline(t, env, build, probe, opts...)
		if want := ref[tc.filtered]; res.NOutput != want.NOutput || res.KeySum != want.KeySum {
			t.Errorf("%s: (%d, %d) rows and keysum, the simulator's (%d, %d)", tc.name, res.NOutput, res.KeySum, want.NOutput, want.KeySum)
		}
		d := res.Plan
		switch {
		case d == nil:
			t.Errorf("%s: no plan reported", tc.name)
		case d.Fanout != res.JoinFanout:
			t.Errorf("%s: plan says fanout %d, the join ran %d", tc.name, d.Fanout, res.JoinFanout)
		case d.Strategy != tc.strategy || d.Fanout != tc.fanout:
			t.Errorf("%s: plan %v at fanout %d, want %v at %d (%s)", tc.name, d.Strategy, d.Fanout, tc.strategy, tc.fanout, d.Reason)
		case d.Stats.BuildRows != tc.buildRows:
			t.Errorf("%s: plan read %d build rows, the join read %d", tc.name, d.Stats.BuildRows, tc.buildRows)
		case d.Strategy == StrategyStream && res.ResidentPartitions+res.SpilledPartitions+res.DemotedPartitions+res.JoinRecursionDepth != 0:
			t.Errorf("%s: a reported stream ran partitioned: %d resident, %d spilled, %d demoted pairs, depth %d", tc.name,
				res.ResidentPartitions, res.SpilledPartitions, res.DemotedPartitions, res.JoinRecursionDepth)
		}
	}
}
