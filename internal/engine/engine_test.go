package engine

import (
	"reflect"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/memsim"
	"hashjoin/internal/plan"
	"hashjoin/internal/vmem"
	"hashjoin/internal/workload"
)

// testEnv generates a workload pair in one shared arena and wraps it in
// a timed memory view — both backends run over the same bytes, which is
// what makes byte-identical results a meaningful assertion.
func testEnv(tb testing.TB, spec workload.Spec) (*workload.Pair, *arena.Arena, *vmem.Mem) {
	tb.Helper()
	a := arena.New(workload.ArenaBytesFor(spec) * 3)
	pair := workload.Generate(a, spec)
	m := vmem.New(a, memsim.NewSim(memsim.SmallConfig()))
	return pair, a, m
}

func simCfg(m *vmem.Mem, scheme core.Scheme, params core.Params) Config {
	return Config{Backend: Sim, Mem: m, Scheme: scheme, Params: params}
}

// mustCompile / mustRun / mustGroups / mustCollect are the test-side
// drains: any error is fatal, so parity assertions stay one-liners.
func mustCompile(tb testing.TB, plan *Node, cfg Config) Operator {
	tb.Helper()
	op, err := Compile(plan, cfg)
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	return op
}

func mustRun(tb testing.TB, plan *Node, cfg Config, a *arena.Arena) Result {
	tb.Helper()
	r, err := Run(mustCompile(tb, plan, cfg), a)
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return r
}

func mustGroups(tb testing.TB, plan *Node, cfg Config, a *arena.Arena) []Group {
	tb.Helper()
	g, err := Groups(mustCompile(tb, plan, cfg), a)
	if err != nil {
		tb.Fatalf("Groups: %v", err)
	}
	return g
}

func mustCollect(tb testing.TB, plan *Node, cfg Config, a *arena.Arena) [][]byte {
	tb.Helper()
	rows, err := Collect(mustCompile(tb, plan, cfg), a)
	if err != nil {
		tb.Fatalf("Collect: %v", err)
	}
	return rows
}

func nativeCfg(a *arena.Arena, scheme core.Scheme, params core.Params, fanout int) Config {
	return Config{Backend: Native, A: a, Scheme: scheme, Params: params, Fanout: fanout}
}

func TestScanParity(t *testing.T) {
	pair, a, m := testEnv(t, workload.Spec{NBuild: 100, TupleSize: 16, MatchesPerBuild: 1, Seed: 3})
	plan := Scan(pair.Probe)

	sim := mustCollect(t, plan, simCfg(m, core.SchemeGroup, core.DefaultParams()), a)
	nat := mustCollect(t, plan, nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), a)
	if len(sim) != pair.Spec.NProbe {
		t.Fatalf("sim scan rows = %d, want %d", len(sim), pair.Spec.NProbe)
	}
	if !reflect.DeepEqual(sim, nat) {
		t.Fatalf("scan rows differ between backends")
	}
}

func TestFilterParity(t *testing.T) {
	pair, a, m := testEnv(t, workload.Spec{NBuild: 200, TupleSize: 16, MatchesPerBuild: 1, Seed: 4})
	plan := Filter(Scan(pair.Build), KeyBetween(0, 1<<30))

	sim := mustCollect(t, plan, simCfg(m, core.SchemeGroup, core.DefaultParams()), a)
	nat := mustCollect(t, plan, nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), a)
	if len(sim) == 0 || len(sim) == pair.Spec.NBuild {
		t.Fatalf("filter should be selective but not empty, got %d of %d rows", len(sim), pair.Spec.NBuild)
	}
	if !reflect.DeepEqual(sim, nat) {
		t.Fatalf("filtered rows differ between backends")
	}
}

// TestJoinParity runs the same logical join on both backends across all
// schemes and both native strategies (streaming and morsel) and checks
// the results against the workload's ground truth.
func TestJoinParity(t *testing.T) {
	spec := workload.Spec{NBuild: 400, TupleSize: 20, MatchesPerBuild: 2, PctMatched: 75, Seed: 5}
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined} {
		for _, fanout := range []int{1, 4} {
			pair, a, m := testEnv(t, spec)
			plan := HashJoin(Scan(pair.Build), Scan(pair.Probe))

			sim := mustRun(t, plan, simCfg(m, scheme, core.DefaultParams()), a)
			nat := mustRun(t, plan, nativeCfg(a, scheme, core.DefaultParams(), fanout), a)

			for name, r := range map[string]Result{"sim": sim, "native": nat} {
				if r.NRows != pair.ExpectedMatches {
					t.Errorf("%v/fanout=%d %s: NRows = %d, want %d", scheme, fanout, name, r.NRows, pair.ExpectedMatches)
				}
				if r.KeySum != pair.KeySum {
					t.Errorf("%v/fanout=%d %s: KeySum = %d, want %d", scheme, fanout, name, r.KeySum, pair.KeySum)
				}
			}
		}
	}
}

// TestJoinSkewParity exercises duplicate build keys (bucket chains).
func TestJoinSkewParity(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 16, MatchesPerBuild: 2, Skew: 3, Seed: 6}
	pair, a, m := testEnv(t, spec)
	plan := HashJoin(Scan(pair.Build), Scan(pair.Probe))

	sim := mustRun(t, plan, simCfg(m, core.SchemeGroup, core.DefaultParams()), a)
	nat := mustRun(t, plan, nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 2), a)
	if sim.NRows != pair.ExpectedMatches || nat.NRows != pair.ExpectedMatches {
		t.Fatalf("NRows sim=%d native=%d, want %d", sim.NRows, nat.NRows, pair.ExpectedMatches)
	}
	if sim.KeySum != pair.KeySum || nat.KeySum != pair.KeySum {
		t.Fatalf("KeySum sim=%d native=%d, want %d", sim.KeySum, nat.KeySum, pair.KeySum)
	}
}

// TestJoinMaterializedBuild routes the build side through a filter, so
// both backends take the materialization path instead of the base-
// relation short-circuit.
func TestJoinMaterializedBuild(t *testing.T) {
	spec := workload.Spec{NBuild: 250, TupleSize: 16, MatchesPerBuild: 2, Seed: 7}
	pair, a, m := testEnv(t, spec)
	plan := HashJoin(
		Filter(Scan(pair.Build), KeyBetween(0, ^uint32(0))),
		Filter(Scan(pair.Probe), KeyBetween(0, ^uint32(0))),
	)

	sim := mustRun(t, plan, simCfg(m, core.SchemeGroup, core.DefaultParams()), a)
	nat := mustRun(t, plan, nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), a)
	natM := mustRun(t, plan, nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 4), a)
	for name, r := range map[string]Result{"sim": sim, "native": nat, "native-morsel": natM} {
		if r.NRows != pair.ExpectedMatches || r.KeySum != pair.KeySum {
			t.Errorf("%s: got (%d, %d), want (%d, %d)", name, r.NRows, r.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
	}
}

// TestAggregateParity aggregates straight over a base relation.
func TestAggregateParity(t *testing.T) {
	spec := workload.Spec{NBuild: 200, TupleSize: 16, MatchesPerBuild: 3, Skew: 2, Seed: 8}
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined, core.SchemeCombined} {
		pair, a, m := testEnv(t, spec)
		plan := HashAggregate(Scan(pair.Probe), 4, pair.Spec.NBuild)

		sim := mustGroups(t, plan, simCfg(m, scheme, core.DefaultParams()), a)
		nat := mustGroups(t, plan, nativeCfg(a, scheme, core.DefaultParams(), 1), a)
		if !reflect.DeepEqual(sim, nat) {
			t.Fatalf("%v: groups differ between backends (sim %d, native %d groups)", scheme, len(sim), len(nat))
		}
		var total uint64
		for _, g := range sim {
			total += g.Count
		}
		if total != uint64(pair.Spec.NProbe) {
			t.Fatalf("%v: group counts sum to %d, want %d", scheme, total, pair.Spec.NProbe)
		}
	}
}

// TestPipelineParity is the full Scan -> HashJoin -> HashAggregate
// pipeline on both backends: identical sorted group lists, and the
// join's NOutput/KeySum recovered from the groups match ground truth.
func TestPipelineParity(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 90, Seed: 9}
	for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined} {
		for _, fanout := range []int{1, 4} {
			pair, a, m := testEnv(t, spec)
			plan := HashAggregate(
				HashJoin(Scan(pair.Build), Scan(pair.Probe)),
				4, pair.Spec.NBuild)

			sim := mustGroups(t, plan, simCfg(m, scheme, core.DefaultParams()), a)
			nat := mustGroups(t, plan, nativeCfg(a, scheme, core.DefaultParams(), fanout), a)
			if !reflect.DeepEqual(sim, nat) {
				t.Fatalf("%v/fanout=%d: pipeline groups differ (sim %d, native %d groups)",
					scheme, fanout, len(sim), len(nat))
			}
			var nOut, keySum uint64
			for _, g := range sim {
				nOut += g.Count
				keySum += uint64(g.Key) * g.Count
			}
			if nOut != uint64(pair.ExpectedMatches) || keySum != pair.KeySum {
				t.Fatalf("%v/fanout=%d: derived (%d, %d), want (%d, %d)",
					scheme, fanout, nOut, keySum, pair.ExpectedMatches, pair.KeySum)
			}
		}
	}
}

// countingOp wraps an operator and counts protocol calls.
type countingOp struct {
	inner  Operator
	opens  int
	closes int
}

func (c *countingOp) Open() error                      { c.opens++; return c.inner.Open() }
func (c *countingOp) NextBatch(b *Batch) (bool, error) { return c.inner.NextBatch(b) }
func (c *countingOp) Close()                           { c.closes++; c.inner.Close() }

// TestJoinClosesBuildChild pins the fix for the per-tuple layer's leak:
// HashJoin must close its build child exactly once (it used to close
// only the probe child), on both backends and both join strategies —
// and stay exactly-once under a redundant extra Close.
func TestJoinClosesBuildChild(t *testing.T) {
	spec := workload.Spec{NBuild: 64, TupleSize: 16, MatchesPerBuild: 1, Seed: 10}
	pair, a, m := testEnv(t, spec)
	width := pair.Spec.TupleSize

	cases := []struct {
		name string
		mk   func(build, probe Operator) Operator
	}{
		{"sim", func(b, p Operator) Operator {
			return newSimHashJoin(m, b, p, nil, width, width, core.DefaultParams(), plan.Inner)
		}},
		{"native-stream", func(b, p Operator) Operator {
			return newNativeHashJoin(nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), b, p, nil, nil, width, width, plan.Inner, []span{{0, 2 * width}})
		}},
		{"native-morsel", func(b, p Operator) Operator {
			return newNativeHashJoin(nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 4), b, p, nil, nil, width, width, plan.Inner, []span{{0, 2 * width}})
		}},
	}
	for _, tc := range cases {
		build := &countingOp{inner: newNativeScan(a, pair.Build, 19)}
		probe := &countingOp{inner: newNativeScan(a, pair.Probe, 19)}
		join := tc.mk(build, probe)
		if _, err := Run(join, a); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		join.Close() // redundant; children must not be closed again
		if build.closes != 1 {
			t.Errorf("%s: build child closed %d times, want 1", tc.name, build.closes)
		}
		if probe.closes != 1 {
			t.Errorf("%s: probe child closed %d times, want 1", tc.name, probe.closes)
		}
	}
}

// TestAggregateClosesChild pins the other fixed leak: the per-tuple
// HashAggregate's Close was an empty stub.
func TestAggregateClosesChild(t *testing.T) {
	spec := workload.Spec{NBuild: 64, TupleSize: 16, MatchesPerBuild: 1, Seed: 11}
	pair, a, m := testEnv(t, spec)
	width := pair.Spec.TupleSize

	cases := []struct {
		name string
		mk   func(child Operator) Operator
	}{
		{"sim", func(c Operator) Operator {
			return newSimHashAggregate(m, c, nil, width, 4, spec.NBuild, core.SchemeGroup, core.DefaultParams())
		}},
		{"native", func(c Operator) Operator {
			return newNativeHashAggregate(nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), c, width, 4, spec.NBuild)
		}},
	}
	for _, tc := range cases {
		child := &countingOp{inner: newNativeScan(a, pair.Probe, 19)}
		agg := tc.mk(child)
		if _, err := Groups(agg, a); err != nil {
			t.Fatalf("%s: Groups: %v", tc.name, err)
		}
		agg.Close()
		if child.closes != 1 {
			t.Errorf("%s: child closed %d times, want 1", tc.name, child.closes)
		}
	}
}

// TestBatchRule asserts every operator honors the batch = G rule: no
// batch larger than the configured group size, on either backend, under
// either native strategy — whose background workers hand rows over in
// buffers of several groups that NextBatch must still serve a group at
// a time. "join-morsels" is large enough for the streaming join to cut
// its probe side into several morsels and share it between the workers.
func TestBatchRule(t *testing.T) {
	spec := workload.Spec{NBuild: 150, TupleSize: 16, MatchesPerBuild: 2, Seed: 12}
	const g = 7
	params := core.Params{G: g, D: 2}
	pair, a, m := testEnv(t, spec)
	big, bigA, _ := testEnv(t, workload.Spec{NBuild: 10_000, TupleSize: 16, MatchesPerBuild: 2, Seed: 12})

	type planCase struct {
		plan *Node
		a    *arena.Arena
	}
	plans := map[string]planCase{
		"scan":         {Scan(pair.Probe), a},
		"filter":       {Filter(Scan(pair.Probe), KeyBetween(0, ^uint32(0))), a},
		"join":         {HashJoin(Scan(pair.Build), Scan(pair.Probe)), a},
		"agg":          {HashAggregate(Scan(pair.Probe), 4, spec.NBuild), a},
		"join-morsels": {HashJoin(Scan(big.Build), Scan(big.Probe)), bigA},
	}
	for name, pc := range plans {
		stream2 := nativeCfg(pc.a, core.SchemeGroup, params, 1)
		stream2.Workers = 2
		part2 := nativeCfg(pc.a, core.SchemeGroup, params, 4)
		part2.Workers = 2
		cfgs := []Config{nativeCfg(pc.a, core.SchemeGroup, params, 1), stream2, part2}
		if pc.a == a {
			cfgs = append(cfgs, simCfg(m, core.SchemeGroup, params))
		}
		for _, cfg := range cfgs {
			op := mustCompile(t, pc.plan, cfg)
			scope := pc.a.Scope()
			if err := op.Open(); err != nil {
				t.Fatalf("%s (%v): Open: %v", name, cfg.Backend, err)
			}
			var b Batch
			rows := 0
			for {
				ok, err := op.NextBatch(&b)
				if err != nil {
					t.Fatalf("%s (%v): NextBatch: %v", name, cfg.Backend, err)
				}
				if !ok {
					break
				}
				rows += b.Len()
				if b.Len() > g {
					t.Fatalf("%s (%v fanout=%d workers=%d): batch of %d rows exceeds G=%d",
						name, cfg.Backend, cfg.Fanout, cfg.Workers, b.Len(), g)
				}
			}
			op.Close()
			scope.Release()
			if name == "join-morsels" && rows != big.ExpectedMatches {
				t.Fatalf("%s (fanout=%d workers=%d): %d rows, want %d", name, cfg.Fanout, cfg.Workers, rows, big.ExpectedMatches)
			}
		}
	}
}

// TestCompileValidation covers the setup failures: configuration
// mistakes surface as Compile errors (they used to panic), and plan
// construction mistakes still panic at plan-build time.
func TestCompileValidation(t *testing.T) {
	spec := workload.Spec{NBuild: 8, TupleSize: 16, MatchesPerBuild: 1, Seed: 13}
	pair, a, m := testEnv(t, spec)

	for name, cfg := range map[string]Config{
		"sim without Mem":      {Backend: Sim},
		"native without arena": {Backend: Native},
		"unknown backend":      {Backend: Backend(99), A: a},
		"negative G":           {Backend: Native, A: a, Params: core.Params{G: -1}},
		"negative D":           {Backend: Native, A: a, Params: core.Params{D: -1}},
		"negative MemBudget":   {Backend: Native, A: a, MemBudget: -1},
	} {
		if _, err := Compile(Scan(pair.Build), cfg); err == nil {
			t.Errorf("%s: expected a Compile error", name)
		}
	}

	defer func() {
		if recover() == nil {
			t.Errorf("agg value overlapping key: expected panic")
		}
	}()
	_ = m
	HashAggregate(Scan(pair.Build), 2, 8)
}

// TestCompileMergesZeroParams pins the zero-field contract: a partially
// filled Params gets the unset fields from the backend defaults rather
// than reaching an operator loop as a zero (which used to make the
// pipelined probe spin or degenerate to batch size 0).
func TestCompileMergesZeroParams(t *testing.T) {
	spec := workload.Spec{NBuild: 120, TupleSize: 16, MatchesPerBuild: 2, Seed: 14}
	pair, a, m := testEnv(t, spec)
	plan := HashJoin(Scan(pair.Build), Scan(pair.Probe))

	for name, cfg := range map[string]Config{
		"sim zero params":     simCfg(m, core.SchemePipelined, core.Params{}),
		"sim only D":          simCfg(m, core.SchemePipelined, core.Params{D: 8}),
		"sim only G":          simCfg(m, core.SchemeGroup, core.Params{G: 5}),
		"native zero params":  nativeCfg(a, core.SchemePipelined, core.Params{}, 1),
		"native only D":       nativeCfg(a, core.SchemePipelined, core.Params{D: 3}, 1),
		"native morsel zeros": nativeCfg(a, core.SchemeGroup, core.Params{}, 4),
	} {
		r, err := Run(mustCompile(t, plan, cfg), a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.NRows != pair.ExpectedMatches || r.KeySum != pair.KeySum {
			t.Errorf("%s: got (%d, %d), want (%d, %d)", name, r.NRows, r.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
	}
}
