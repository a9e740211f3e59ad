package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/plan"
)

// A streaming join's table keeps only the leading bytes of each build
// tuple that the run's sinks read (nativeHashJoin.rowWidth): the key
// under Run's counter, the key and value under an aggregate that sums a
// build-half value, and the whole tuple for a parent that pulls rows.
// These tests pin the width each consumer gets and that the narrowed
// rows still produce the reference's output.

// buildLens records the length of every build row a join's sinks are
// handed.
type buildLens struct {
	mu   sync.Mutex
	lens map[int]int
}

// captureBuildLens wraps the sinks installed on h — its own row sink
// when none is, as Open would install it — so that each records the
// length of every non-nil build row it is handed. A wrapped own sink
// keeps writing rows, but Open no longer hands them out: drive the
// join for its sinks only.
func captureBuildLens(h *nativeHashJoin) *buildLens {
	c := &buildLens{lens: map[int]int{}}
	inner := h.sinkFor
	if inner == nil {
		inner = (&joinRows{h: h}).sinkFor
	}
	h.sinkFor = func(w int) func([]byte, uint64) {
		sink := inner(w)
		return func(build []byte, pref uint64) {
			if build != nil {
				c.mu.Lock()
				c.lens[len(build)]++
				c.mu.Unlock()
			}
			sink(build, pref)
		}
	}
	return c
}

// only returns the one build-row length c saw, or -1 when it saw none
// or several.
func (c *buildLens) only() int {
	if len(c.lens) != 1 {
		return -1
	}
	for n := range c.lens {
		return n
	}
	return -1
}

// TestRowWidthPerConsumer installs a capturing sink around each
// consumer of a streaming inner join of 16-byte tuples and checks the
// build rows it is handed: 4 bytes (the key) under Run's counter, 8 (key
// and value) under an aggregate of the build half's first payload word,
// 4 under an aggregate of a probe-half value, and all 16 under Collect
// and under a join over the join.
func TestRowWidthPerConsumer(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := arena.New(16 << 20)
	x := keyedRelation(a, streamKeys(rng, 300, 200), 0xB)
	y := keyedRelation(a, streamKeys(rng, 2000, 400), 0xA)
	z := keyedRelation(a, streamKeys(rng, 500, 300), 0xC)
	join := HashJoin(Scan(x), Scan(y))
	want := referenceRows(plan.Inner, relTuples(x), relTuples(y))
	for _, workers := range []int{1, 2} {
		cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, 1)
		cfg.Workers = workers

		// Run installs its counter as countJoin does here, and the
		// counter must still read the reference's totals.
		scope := a.Scope()
		h := mustCompile(t, join, cfg).(*nativeHashJoin)
		counted := countJoin(h)
		lens := captureBuildLens(h)
		if err := h.Open(); err != nil {
			t.Fatalf("workers=%d Run: Open: %v", workers, err)
		}
		h.Close()
		scope.Release()
		if got := counted.result(); got != referenceResult(want) {
			t.Errorf("workers=%d Run: counted %+v, want %+v", workers, got, referenceResult(want))
		}
		if got := lens.only(); got != 4 {
			t.Errorf("workers=%d Run: build rows of lengths %v, want only 4 (the key)", workers, lens.lens)
		}

		for _, tc := range []struct {
			name     string
			valueOff int
			want     int
		}{
			{"aggregate of a build value", 4, 8},
			{"aggregate of a probe value", streamTuple + 4, 4},
		} {
			root := mustCompile(t, HashAggregate(join, tc.valueOff, 300), cfg).(*nativeHashAggregate)
			lens := captureBuildLens(root.join)
			if got := mustGroupsOf(t, root, a); !reflect.DeepEqual(got, aggregateRows(want, tc.valueOff)) {
				t.Errorf("workers=%d %s: groups differ from the reference", workers, tc.name)
			}
			if got := lens.only(); got != tc.want {
				t.Errorf("workers=%d %s: build rows of lengths %v, want only %d", workers, tc.name, lens.lens, tc.want)
			}
		}

		scope = a.Scope()
		h = mustCompile(t, join, cfg).(*nativeHashJoin)
		lens = captureBuildLens(h)
		if err := h.Open(); err != nil {
			t.Fatalf("workers=%d Collect: Open: %v", workers, err)
		}
		h.Close()
		scope.Release()
		if got := lens.only(); got != streamTuple {
			t.Errorf("workers=%d Collect: build rows of lengths %v, want only %d (the whole tuple)",
				workers, lens.lens, streamTuple)
		}

		outer := mustCompile(t, HashJoin(join, Scan(z)), cfg).(*nativeHashJoin)
		lens = captureBuildLens(outer.buildChild.(*nativeHashJoin))
		if _, err := Collect(outer, a); err != nil {
			t.Fatalf("workers=%d nested: %v", workers, err)
		}
		if got := lens.only(); got != streamTuple {
			t.Errorf("workers=%d join under a join: build rows of lengths %v, want only %d (the whole tuple)",
				workers, lens.lens, streamTuple)
		}
	}
}

// mustGroupsOf drains a compiled aggregate root through Groups.
func mustGroupsOf(tb testing.TB, root Operator, a *arena.Arena) []Group {
	tb.Helper()
	g, err := Groups(root, a)
	if err != nil {
		tb.Fatalf("Groups: %v", err)
	}
	return g
}

// TestRowWidthRunThenCollect drains one compiled join root through Run
// and then through Collect. Run narrows the table to key-only rows for
// its counter; Collect, on the same operator, must get whole rows, equal
// to the reference as a multiset, for every join type on both native
// strategies.
func TestRowWidthRunThenCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := arena.New(16 << 20)
	build := keyedRelation(a, streamKeys(rng, 300, 200), 0xB)
	probe := keyedRelation(a, streamKeys(rng, 1500, 400), 0xA)
	for _, jt := range plan.JoinTypes() {
		join := HashJoinTyped(Scan(build), Scan(probe), jt)
		want := sortedRows(referenceRows(jt, relTuples(build), relTuples(probe)))
		for _, fanout := range []int{1, 4} {
			cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, fanout)
			cfg.Workers = 2
			root := mustCompile(t, join, cfg)
			if got, err := Run(root, a); err != nil || got != referenceResult(want) {
				t.Fatalf("%v fanout=%d: Run = %+v, %v; want %+v", jt, fanout, got, err, referenceResult(want))
			}
			got, err := Collect(root, a)
			if err != nil {
				t.Fatalf("%v fanout=%d: Collect after Run: %v", jt, fanout, err)
			}
			if i := slices.IndexFunc(got, func(r []byte) bool { return len(r) != join.Width() }); i >= 0 {
				t.Fatalf("%v fanout=%d: Collect after Run: row %d is %d bytes, want %d",
					jt, fanout, i, len(got[i]), join.Width())
			}
			if !sameRows(sortedRows(got), want) {
				t.Errorf("%v fanout=%d: Collect after Run: %d rows, reference %d (or same count, different rows)",
					jt, fanout, len(got), len(want))
			}
		}
	}
}
