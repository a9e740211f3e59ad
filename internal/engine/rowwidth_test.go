package engine

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/hash"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
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

// pairedRelation is keyedRelation with the hash code of k>>1 memoized
// for key k, so keys 2m and 2m+1 share one code: a hot code then holds
// build rows of a key the probe side lacks, which only the right-outer
// sweep emits.
func pairedRelation(a *arena.Arena, keys []uint32, tag uint32) *storage.Relation {
	rel := storage.NewRelation(a, storage.KeyPayloadSchema(streamTuple), 8<<10)
	var tup [streamTuple]byte
	for i, k := range keys {
		binary.LittleEndian.PutUint32(tup[0:], k)
		binary.LittleEndian.PutUint32(tup[4:], uint32(i))
		binary.LittleEndian.PutUint32(tup[8:], tag)
		binary.LittleEndian.PutUint32(tup[12:], ^k)
		rel.Append(tup[:], hash.CodeU32(k>>1))
	}
	return rel
}

// TestSpillRowWidthPerConsumer runs a budgeted partitioned join whose
// duplicate-heavy codes overflow the budget, so each spills as its own
// sub-pair and is joined out of core in chunks, under each consumer:
// Run's counter, an aggregate of the build half's first payload word and
// Collect. The output must equal the reference under every join type,
// right outer's sweep of the chunk tables included. The build rows the
// sinks are handed carry the consumer's width (4, 8, the whole 16), and
// so do the spilled build pages: the same pairs spill under every
// consumer, and their bytes grow with the width — except under semi and
// anti, whose rows carry no build byte and keep the key alone.
func TestSpillRowWidthPerConsumer(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	// 14 and 15 share a code with 600 rows, 18 one with 300: both
	// overflow the 146 rows of 56 bytes an 8 KiB budget holds. No probe
	// row carries 15.
	var bKeys []uint32
	for i := 0; i < 300; i++ {
		bKeys = append(bKeys, 14, 15, 18)
	}
	bKeys = append(bKeys, streamKeys(rng, 300, 400)...)
	rng.Shuffle(len(bKeys), func(i, j int) { bKeys[i], bKeys[j] = bKeys[j], bKeys[i] })
	pKeys := streamKeys(rng, 600, 500)
	for i := 0; i < 6; i++ {
		pKeys = append(pKeys, 14, 18)
	}
	rng.Shuffle(len(pKeys), func(i, j int) { pKeys[i], pKeys[j] = pKeys[j], pKeys[i] })
	pKeys = slices.DeleteFunc(pKeys, func(k uint32) bool { return k == 15 })

	a := arena.New(32 << 20)
	build, probe := pairedRelation(a, bKeys, 0xB), pairedRelation(a, pKeys, 0xA)
	for _, jt := range plan.JoinTypes() {
		join := HashJoinTyped(Scan(build), Scan(probe), jt)
		want := referenceRows(jt, relTuples(build), relTuples(probe))
		cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, 4)
		cfg.Workers, cfg.MemBudget, cfg.SpillPageSize, cfg.SpillDir = 2, 8<<10, 512, t.TempDir()
		widths := []int{4, 8, streamTuple} // Run, aggregate, Collect
		if jt.ProbeOnly() {
			widths = []int{4, 4, 4}
		}
		var reps [3]Report

		// Run: the counter must read the reference's totals.
		cfg.Report = &reps[0]
		scope := a.Scope()
		h := mustCompile(t, join, cfg).(*nativeHashJoin)
		counted := countJoin(h)
		lens := captureBuildLens(h)
		if err := h.Open(); err != nil {
			t.Fatalf("%v Run: %v", jt, err)
		}
		h.Close()
		scope.Release()
		if got := counted.result(); got != referenceResult(want) {
			t.Errorf("%v Run: counted %+v, want %+v", jt, got, referenceResult(want))
		}
		lensSeen := []*buildLens{lens}

		// An aggregate of the build half's first payload word (of the
		// probe tuple's, under semi and anti).
		cfg.Report = &reps[1]
		root := mustCompile(t, HashAggregate(join, 4, 1000), cfg).(*nativeHashAggregate)
		lens = captureBuildLens(root.join)
		if got := mustGroupsOf(t, root, a); !reflect.DeepEqual(got, aggregateRows(want, 4)) {
			t.Errorf("%v aggregate: groups differ from the reference", jt)
		}
		lensSeen = append(lensSeen, lens)

		// Collect: every row equals the reference's, as a multiset. A
		// second run captures the widths its sinks are handed.
		cfg.Report = nil
		if got := mustCollect(t, join, cfg, a); !sameRows(sortedRows(got), sortedRows(want)) {
			t.Errorf("%v Collect: %d rows, reference %d (or same count, different rows)", jt, len(got), len(want))
		}
		cfg.Report = &reps[2]
		scope = a.Scope()
		h = mustCompile(t, join, cfg).(*nativeHashJoin)
		lens = captureBuildLens(h)
		if err := h.Open(); err != nil {
			t.Fatalf("%v Collect: %v", jt, err)
		}
		h.Close()
		scope.Release()
		lensSeen = append(lensSeen, lens)

		for i, consumer := range []string{"Run", "aggregate", "Collect"} {
			switch got := lensSeen[i].only(); {
			case jt.ProbeOnly() && len(lensSeen[i].lens) != 0:
				t.Errorf("%v %s: build rows of lengths %v handed to a probe-only join's sinks", jt, consumer, lensSeen[i].lens)
			case !jt.ProbeOnly() && got != widths[i]:
				t.Errorf("%v %s: build rows of lengths %v, want only %d", jt, consumer, lensSeen[i].lens, widths[i])
			}
			r := reps[i]
			if r.SpilledPartitions != 2 || r.SpilledPartitions != reps[0].SpilledPartitions {
				t.Errorf("%v %s: %d spilled pairs, want the 2 hot codes under every consumer", jt, consumer, r.SpilledPartitions)
			}
			if i == 0 {
				continue
			}
			prev := reps[i-1].SpillBytesWritten
			if (widths[i] > widths[i-1]) != (r.SpillBytesWritten > prev) ||
				(widths[i] == widths[i-1]) != (r.SpillBytesWritten == prev) {
				t.Errorf("%v %s: %d spill bytes written at width %d, %d at width %d: the pages do not carry the row width",
					jt, consumer, r.SpillBytesWritten, widths[i], prev, widths[i-1])
			}
		}
	}
}
