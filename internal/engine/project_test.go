package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/plan"
	"hashjoin/internal/workload"
)

// TestJoinProjectionParity moves the aggregate's value around the
// join's output row — build half, across the build/probe seam, probe
// half, the row's last bytes — for every join type and both native
// strategies on 1, 2 and 4 workers. The native join emits only the key
// and that value, each worker into a partial aggregate of its own; its
// groups must equal the simulator's (which emits whole rows) and the
// naive reference's, null pads of outer joins included — a null pad's key 0 once, however many partials hold
// it.
func TestJoinProjectionParity(t *testing.T) {
	spec := workload.Spec{NBuild: 150, TupleSize: 20, PctMatched: 70,
		MatchRate: 0.55, NProbe: 400, Skew: 2, Seed: 61}
	for _, jt := range plan.JoinTypes() {
		pair, a, m := testEnv(t, spec)
		if pair.ProbeMatched == 0 || pair.ProbeMatched == spec.NProbe || pair.UnmatchedBuildRows == 0 {
			t.Fatalf("degenerate workload: %+v", pair)
		}
		join := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		rows := referenceRows(jt, relTuples(pair.Build), relTuples(pair.Probe))

		bw, width := spec.TupleSize, join.Width()
		offs := []int{4, bw - 2, bw + 4, width - 4}
		if jt.ProbeOnly() {
			offs = []int{4, 7, width - 4} // the row is the probe tuple: no seam
		}
		for _, valueOff := range offs {
			want := aggregateRows(rows, valueOff)
			logical := HashAggregate(join, valueOff, spec.NBuild)

			cfgs := map[string]Config{
				"sim": simCfg(m, core.SchemeGroup, core.DefaultParams()),
			}
			for _, fanout := range []int{1, 4} {
				for _, workers := range []int{1, 2, 4} {
					cfg := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), fanout)
					cfg.Workers = workers
					cfgs[fmt.Sprintf("native fanout=%d workers=%d", fanout, workers)] = cfg
				}
			}
			for name, cfg := range cfgs {
				if got := mustGroups(t, logical, cfg, a); !reflect.DeepEqual(got, want) {
					t.Errorf("%v valueOff=%d %s: groups differ from the reference (%d vs %d groups)",
						jt, valueOff, name, len(got), len(want))
				}
			}
		}
	}
}

// TestBackToBackAggregates runs aggregates of very different group
// counts back to back — over both native strategies on 2 and 4
// workers (the partitioned one also reached by a budget at fan-out 1),
// a probe side scanned in several morsels or materialized from a
// filter, and an expected group count off by orders of magnitude either
// way — each against the naive reference, drained by Groups and by
// Collect: partials that see more groups than their share grow, a key
// several partials hold folds into one group, the rows come out in key
// order, and no aggregate sees another's groups.
func TestBackToBackAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a := arena.New(64 << 20)
	type agg struct {
		name string
		plan *Node
		want []Group
	}
	var aggs []agg
	for _, size := range []struct{ nBuild, span int }{{2000, 3000}, {40, 20}} {
		build := keyedRelation(a, streamKeys(rng, size.nBuild, size.span), 0xB)
		probe := keyedRelation(a, streamKeys(rng, manyMorsels, 2*size.span), 0xA)
		// Value offset 20 is the probe tuple's position (keyedRelation).
		want := aggregateRows(referenceRows(plan.LeftOuter, relTuples(build), relTuples(probe)), 20)
		for _, expected := range []int{1, 1 << 16} {
			for name, p := range map[string]*Node{
				"scanned":  Scan(probe),
				"filtered": Filter(Scan(probe), KeyBetween(0, ^uint32(0))),
			} {
				join := HashJoinTyped(Scan(build), p, plan.LeftOuter)
				aggs = append(aggs, agg{fmt.Sprintf("%d groups, %d expected, %s probe", len(want), expected, name),
					HashAggregate(join, 20, expected), want})
			}
		}
	}
	for round := 0; round < 2; round++ {
		for _, ag := range aggs {
			// Fan-out 0 stands for fan-out 1 under a budget no streaming
			// table fits: Open turns the join partitioned.
			for _, fanout := range []int{0, 1, 8} {
				for _, workers := range []int{2, 4} {
					cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, max(fanout, 1))
					if fanout == 0 {
						cfg.MemBudget, cfg.NoSpill = 32<<10, true
					}
					cfg.Workers = workers
					if got := mustGroups(t, ag.plan, cfg, a); !reflect.DeepEqual(got, ag.want) {
						t.Fatalf("round %d, %s, fanout=%d workers=%d: %d groups differ from the reference's %d",
							round, ag.name, fanout, workers, len(got), len(ag.want))
					}
					var rows []Group
					for _, r := range mustCollect(t, ag.plan, cfg, a) {
						rows = append(rows, Group{Key: binary.LittleEndian.Uint32(r),
							Count: binary.LittleEndian.Uint64(r[8:]), Sum: binary.LittleEndian.Uint64(r[16:])})
					}
					if !reflect.DeepEqual(rows, ag.want) {
						t.Fatalf("round %d, %s, fanout=%d workers=%d: %d collected rows differ from the reference's %d groups",
							round, ag.name, fanout, workers, len(rows), len(ag.want))
					}
				}
			}
		}
	}
}

// TestRootsGetFullRows pins the other side of the row contract: a join
// drained directly, with no parent to declare spans, emits whole
// build||probe rows, byte for byte, on both backends and both native
// strategies.
func TestRootsGetFullRows(t *testing.T) {
	spec := workload.Spec{NBuild: 120, TupleSize: 20, PctMatched: 70,
		MatchRate: 0.55, NProbe: 300, Seed: 62}
	for _, jt := range plan.JoinTypes() {
		pair, a, m := testEnv(t, spec)
		join := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		want := sortedRows(referenceRows(jt, relTuples(pair.Build), relTuples(pair.Probe)))
		for name, cfg := range map[string]Config{
			"sim":             simCfg(m, core.SchemeGroup, core.DefaultParams()),
			"native fanout=1": nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1),
			"native fanout=4": nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 4),
		} {
			got := sortedRows(mustCollect(t, join, cfg, a))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: %d rows differ from the %d full-width reference rows",
					jt, name, len(got), len(want))
			}
		}
	}
}

// TestJoinEmitWidth pins the helper the scratch estimators size from.
func TestJoinEmitWidth(t *testing.T) {
	pair, a, m := testEnv(t, workload.Spec{NBuild: 8, TupleSize: 20, Seed: 63})
	inner := HashJoin(Scan(pair.Build), Scan(pair.Probe))
	semi := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), plan.LeftSemi)
	native := Config{Backend: Native, A: a}
	for _, tc := range []struct {
		name string
		plan *Node
		cfg  Config
		want int
	}{
		{"inner root", inner, native, 40},
		{"semi root", semi, native, 20},
		{"filter over inner", Filter(inner, KeyBetween(0, 1)), native, 40},
		{"agg over inner", HashAggregate(inner, 30, 8), native, 8},
		{"agg over semi", HashAggregate(semi, 8, 8), native, 8},
		{"agg over inner, sim", HashAggregate(inner, 30, 8), Config{Backend: Sim, Mem: m}, 40},
		{"agg over filter over inner", HashAggregate(Filter(inner, KeyBetween(0, 1)), 30, 8), native, 40},
		{"no join", HashAggregate(Scan(pair.Probe), 4, 8), native, 0},
	} {
		if got := tc.plan.JoinEmitWidth(tc.cfg); got != tc.want {
			t.Errorf("%s: JoinEmitWidth = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSortGroups checks the radix sort behind Groups against a
// comparison sort, on sizes around its edges and on keys that exercise
// every byte: 0, MaxUint32, and keys that differ in the top byte only
// (the three low passes see one bucket and are skipped).
func TestSortGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	unique := func(n int, seedKeys ...uint32) []Group {
		seen := make(map[uint32]bool, n)
		gs := make([]Group, 0, n)
		add := func(k uint32) {
			if !seen[k] && len(gs) < n {
				seen[k] = true
				gs = append(gs, Group{Key: k, Count: uint64(len(gs)), Sum: uint64(k) * 3})
			}
		}
		for _, k := range seedKeys {
			add(k)
		}
		for len(gs) < n {
			add(rng.Uint32())
		}
		rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		return gs
	}
	for name, in := range map[string][]Group{
		"empty":         nil,
		"one":           unique(1),
		"two":           unique(2, math.MaxUint32, 0),
		"top byte only": unique(5, 0x05000000, 0x01000000, 0xFF000000, 0, 0x80000000),
		"100k":          unique(100_000, 0, math.MaxUint32, 0x01000000, 0x02000000, 0xFF000000, 1, 0x100, 0x10000),
	} {
		want := slices.Clone(in)
		slices.SortFunc(want, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) })
		got := sortGroups(in)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: radix order differs from slices.SortFunc", name)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key >= got[i].Key {
				t.Fatalf("%s: keys not strictly ascending at %d: %d then %d", name, i, got[i-1].Key, got[i].Key)
			}
		}
	}
}

// TestGroupsSortedAtScale drains a 100k-group native aggregate through
// Groups: every group present once, keys strictly ascending.
func TestGroupsSortedAtScale(t *testing.T) {
	const n = 100_000
	pair, a, _ := testEnv(t, workload.Spec{NBuild: n, NProbe: 1, TupleSize: 8, Seed: 65})
	got := mustGroups(t, HashAggregate(Scan(pair.Build), 4, n), nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), a)
	if len(got) != n {
		t.Fatalf("%d groups, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("keys not strictly ascending at %d: %d then %d", i, got[i-1].Key, got[i].Key)
		}
	}
}
