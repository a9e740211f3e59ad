package engine

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/memsim"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/vmem"
	"hashjoin/internal/workload"
)

// TestEngineJoinTypesParity runs every join type through the compiled
// pipeline on both backends (and both native strategies) and checks the
// results against the workload's exact per-join-type ground truth.
func TestEngineJoinTypesParity(t *testing.T) {
	spec := workload.Spec{NBuild: 400, TupleSize: 20, PctMatched: 70,
		MatchRate: 0.55, NProbe: 900, Seed: 21}
	for _, jt := range plan.JoinTypes() {
		for _, fanout := range []int{1, 4} {
			pair, a, m := testEnv(t, spec)
			if pair.ProbeMatched == 0 || pair.UnmatchedBuildRows == 0 {
				t.Fatalf("degenerate workload: %+v", pair)
			}
			p := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
			wantN, wantSum := pair.Expected(jt)

			results := map[string]Result{
				"native": mustRun(t, p, nativeCfg(a, core.SchemeGroup, core.DefaultParams(), fanout), a),
			}
			if fanout == 1 {
				results["sim"] = mustRun(t, p, simCfg(m, core.SchemeGroup, core.DefaultParams()), a)
			}
			for name, r := range results {
				if r.NRows != wantN || r.KeySum != wantSum {
					t.Errorf("%v/fanout=%d %s: (NRows, KeySum) = (%d, %d), want (%d, %d)",
						jt, fanout, name, r.NRows, r.KeySum, wantN, wantSum)
				}
			}
		}
	}
}

// TestTinyBuildPlannedParity runs the build sides the planner once sent
// to a nested-loop scan — none, one, 16 and 32 rows — under plan.Auto
// with no fan-out named, on both backends, for every join type: the
// join's planner now picks the streaming hash join for them, and its
// full output multiset must equal the reference over the raw tuples. Build keys repeat and some probe
// keys miss, so every join type has matched, unmatched and chained rows.
func TestTinyBuildPlannedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, nBuild := range []int{0, 1, 16, 32} {
		a := arena.New(8 << 20)
		m := vmem.New(a, memsim.NewSim(memsim.SmallConfig()))
		build := keyedRelation(a, streamKeys(rng, nBuild, 24), 0xB)
		probe := keyedRelation(a, streamKeys(rng, 600, 40), 0xA)
		buildTuples, probeTuples := relTuples(build), relTuples(probe)
		for _, jt := range plan.JoinTypes() {
			var want [][]byte
			switch {
			case nBuild > 0:
				want = referenceRows(jt, buildTuples, probeTuples)
			case jt == plan.LeftAnti:
				want = probeTuples
			case jt == plan.LeftOuter:
				// referenceRows sizes rows from build[0]; an empty build
				// side null-pads every probe row.
				for _, p := range probeTuples {
					want = append(want, append(make([]byte, streamTuple), p...))
				}
			}
			want = sortedRows(slices.Clone(want))
			logical := HashJoinTyped(Scan(build), Scan(probe), jt)
			for _, backend := range []Backend{Sim, Native} {
				// No fan-out named: the join's planner picks.
				var rep Report
				cfg := simCfg(m, core.SchemeGroup, core.DefaultParams())
				if backend == Native {
					cfg = nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 0)
					cfg.Workers = 2
				}
				cfg.Report = &rep
				got := sortedRows(mustCollect(t, logical, cfg, a))
				if d := rep.Plan; d == nil || d.Strategy != plan.StreamHash || d.Fanout != 1 || rep.JoinFanout > 1 {
					t.Fatalf("%d build rows, %v on %v: planned %+v, ran fanout %d; want stream", nBuild, jt, backend, d, rep.JoinFanout)
				}
				if !sameRows(got, want) {
					t.Errorf("%d build rows, %v on %v: %d rows, reference %d (or same count, different rows)",
						nBuild, jt, backend, len(got), len(want))
				}
			}
		}
	}
}

// TestBuildHandleTypedJoin probes one prebuilt shared BuildSide with
// every join type in sequence: each compiled query gets fresh typed
// probe scratch, so the right-outer bitmap of one run cannot leak into
// the next.
func TestBuildHandleTypedJoin(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 16, PctMatched: 60,
		MatchRate: 0.5, NProbe: 700, Seed: 41}
	pair, a, _ := testEnv(t, spec)
	bs, err := native.BuildRelation(pair.Build, pair.Spec.TupleSize, native.BuildConfig{})
	if err != nil {
		t.Fatalf("BuildRelation: %v", err)
	}
	for _, jt := range plan.JoinTypes() {
		p := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		cfg := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1)
		cfg.Build = bs
		r := mustRun(t, p, cfg, a)
		wantN, wantSum := pair.Expected(jt)
		if r.NRows != wantN || r.KeySum != wantSum {
			t.Errorf("%v via BuildSide: (NRows, KeySum) = (%d, %d), want (%d, %d)",
				jt, r.NRows, r.KeySum, wantN, wantSum)
		}
	}
}

// TestCompileStrategyValidation pins the misconfiguration taxonomy: the
// plan shapes the CLI forwards must fail closed at Compile, not produce
// silently-wrong results deep in a run. A strategy request that
// conflicts with itself is plan.Check's error, which Compile returns
// before any operator opens (every row of it: TestResolve).
func TestCompileStrategyValidation(t *testing.T) {
	spec := workload.Spec{NBuild: 50, TupleSize: 16, MatchesPerBuild: 1, Seed: 51}
	pair, a, m := testEnv(t, spec)
	bs, err := native.BuildRelation(pair.Build, pair.Spec.TupleSize, native.BuildConfig{})
	if err != nil {
		t.Fatalf("BuildRelation: %v", err)
	}
	join := HashJoin(Scan(pair.Build), Scan(pair.Probe))

	cases := []struct {
		name string
		node *Node
		cfg  Config
		want string
	}{
		{"agg-off-semi-row", HashAggregate(
			HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), plan.LeftSemi), 20, 8),
			Config{Backend: Native, A: a},
			"probe tuple only"},
		{"forced stream, fanout 8", join, Config{Backend: Native, A: a, Strategy: plan.StreamHash, Fanout: 8}, "fanout 8 conflicts"},
		{"forced partitioned, sim", join, Config{Backend: Sim, Mem: m, Strategy: plan.PartitionedHash}, "native engine"},
		{"prebuilt, fanout 8", join, Config{Backend: Native, A: a, Build: bs, Fanout: 8}, "prebuilt build side"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.node, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile error = %v, want substring %q", err, tc.want)
			}
		})
	}

	// The same aggregate offset is fine over an inner join's wider rows.
	inner := HashAggregate(HashJoin(Scan(pair.Build), Scan(pair.Probe)), 20, 8)
	if _, err := Compile(inner, Config{Backend: Native, A: a}); err != nil {
		t.Fatalf("inner-join aggregate at offset 20 should compile: %v", err)
	}
}

// TestCompileRejectsFilterOverJoin: a filter over a join's output would
// hand on rows its child has already recycled (it gathers a batch across
// several of the join's, and the join reuses its scratch at every one),
// so neither backend compiles the shape; the error is typed. A filter
// under the join is the supported spelling.
func TestCompileRejectsFilterOverJoin(t *testing.T) {
	spec := workload.Spec{NBuild: 50, TupleSize: 16, MatchesPerBuild: 1, Seed: 52}
	pair, a, m := testEnv(t, spec)
	join := HashJoin(Scan(pair.Build), Scan(pair.Probe))
	over := Filter(join, KeyBetween(0, 1<<31))
	under := HashJoin(Filter(Scan(pair.Build), KeyBetween(0, 1<<31)), Scan(pair.Probe))
	for name, cfg := range map[string]Config{
		"sim":    {Backend: Sim, Mem: m},
		"native": {Backend: Native, A: a},
	} {
		for _, p := range []*Node{over, HashAggregate(over, 4, 50)} {
			if _, err := Compile(p, cfg); !errors.Is(err, ErrUnsupportedPlan) {
				t.Errorf("%s: Compile(filter over join) = %v, want ErrUnsupportedPlan", name, err)
			}
		}
		if _, err := Execute(over, cfg); !errors.Is(err, ErrUnsupportedPlan) {
			t.Errorf("%s: Execute(filter over join) = %v, want ErrUnsupportedPlan", name, err)
		}
		if _, err := Compile(under, cfg); err != nil {
			t.Errorf("%s: a filter under the join should compile: %v", name, err)
		}
	}
}

// TestNestedNativeJoins runs a native join over a native join, once as
// its build child and once as its probe child: the inner join runs to
// completion into its own row sink and the outer one pulls its rows —
// materializing them, or, when streaming over the probe side, probing
// them batch by batch on the caller. Every join type (the same at both
// levels), both strategies, through Collect and Run, against the
// nested-loop reference applied twice.
func TestNestedNativeJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := arena.New(64 << 20)
	x := keyedRelation(a, streamKeys(rng, 300, 200), 0xA)
	y := keyedRelation(a, streamKeys(rng, 3000, 400), 0xB)
	z := keyedRelation(a, streamKeys(rng, 2000, 300), 0xC)
	xs, ys, zs := relTuples(x), relTuples(y), relTuples(z)
	for _, jt := range plan.JoinTypes() {
		inner := referenceRows(jt, xs, ys)
		for _, tc := range []struct {
			name    string
			logical *Node
			want    [][]byte
		}{
			{"build child", HashJoinTyped(HashJoinTyped(Scan(x), Scan(y), jt), Scan(z), jt), referenceRows(jt, inner, zs)},
			{"probe child", HashJoinTyped(Scan(z), HashJoinTyped(Scan(x), Scan(y), jt), jt), referenceRows(jt, zs, inner)},
		} {
			want := sortedRows(tc.want)
			for _, fanout := range []int{1, 4} {
				cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, fanout)
				cfg.Workers = 2
				if got := sortedRows(mustCollect(t, tc.logical, cfg, a)); !sameRows(got, want) {
					t.Errorf("%v %s fanout=%d: Collect: %d rows, reference %d (or same count, different rows)",
						jt, tc.name, fanout, len(got), len(want))
				}
				if got := mustRun(t, tc.logical, cfg, a); got != referenceResult(want) {
					t.Errorf("%v %s fanout=%d: Run = %+v, want %+v", jt, tc.name, fanout, got, referenceResult(want))
				}
			}
		}
	}
}
