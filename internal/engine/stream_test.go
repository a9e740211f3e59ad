package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/fault"
	"hashjoin/internal/hash"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// The morsel-parallel streaming join: every worker claims page-range
// morsels of the probe relation from one cursor and probes the one
// shared table. What a run must keep whatever the claim order is the
// output multiset; the order rows arrive in is unspecified, so every
// comparison here sorts first.

const streamTuple = 16

// keyedRelation appends one streamTuple-byte tuple per key; the payload
// carries the tuple's position and tag, so equal keys are still distinct
// rows and a row emitted twice or dropped shows in the multiset.
func keyedRelation(a *arena.Arena, keys []uint32, tag uint32) *storage.Relation {
	rel := storage.NewRelation(a, storage.KeyPayloadSchema(streamTuple), 8<<10)
	var tup [streamTuple]byte
	for i, k := range keys {
		binary.LittleEndian.PutUint32(tup[0:], k)
		binary.LittleEndian.PutUint32(tup[4:], uint32(i))
		binary.LittleEndian.PutUint32(tup[8:], tag)
		binary.LittleEndian.PutUint32(tup[12:], ^k)
		rel.Append(tup[:], hash.CodeU32(k))
	}
	return rel
}

// streamKeys draws n keys from [1, span].
func streamKeys(rng *rand.Rand, n, span int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = 1 + uint32(rng.Intn(span))
	}
	return keys
}

func sortedRows(rows [][]byte) [][]byte {
	slices.SortFunc(rows, bytes.Compare)
	return rows
}

func sameRows(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

// manyMorsels is a probe size the stream cuts into several morsels
// (native.ProbeStream aims for 8192 tuples each).
const manyMorsels = 20_000

// TestParallelStreamParity is the parity table of the streaming join:
// join type x workers x {built here, Config.Build} x probe size x
// native scheme, the full output multiset against the naive reference
// over the raw tuples. Build keys repeat (chains), half the
// probe keys miss, and the small probes leave most build rows unmatched
// — so right outer's sweep must emit each exactly once across workers,
// semi and anti at most one row per probe row, and null pads intact.
func TestParallelStreamParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := arena.New(32 << 20)
	build := keyedRelation(a, streamKeys(rng, 300, 200), 0xB)
	buildTuples := relTuples(build)
	bs, err := native.BuildRelation(build, streamTuple, native.BuildConfig{Workers: 2})
	if err != nil {
		t.Fatalf("BuildRelation: %v", err)
	}

	for _, nProbe := range []int{0, 1, 500, manyMorsels} {
		probe := keyedRelation(a, streamKeys(rng, nProbe, 400), 0xA)
		probeTuples := relTuples(probe)
		for _, jt := range plan.JoinTypes() {
			var want [][]byte
			if nProbe > 0 {
				want = sortedRows(referenceRows(jt, buildTuples, probeTuples))
			} else if jt == plan.RightOuter {
				// referenceRows sizes rows from probe[0]; an empty probe
				// leaves every build row unmatched, probe half zeroed.
				for _, b := range buildTuples {
					want = append(want, append(slices.Clone(b), make([]byte, streamTuple)...))
				}
				sortedRows(want)
			}
			logical := HashJoinTyped(Scan(build), Scan(probe), jt)
			for _, workers := range []int{1, 2, 4} {
				for _, cached := range []bool{false, true} {
					for _, scheme := range []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined} {
						cfg := nativeCfg(a, scheme, core.Params{}, 1)
						cfg.Workers = workers
						if cached {
							cfg.Build = bs
						}
						got := sortedRows(mustCollect(t, logical, cfg, a))
						if !sameRows(got, want) {
							t.Fatalf("%v probe=%d workers=%d cached=%v %v: %d rows, reference %d (or same count, different rows)",
								jt, nProbe, workers, cached, scheme, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestParallelStreamEmptyBuild: a table of no rows has none to sweep —
// right outer over an empty build side is empty, left outer and anti
// are the probe side.
func TestParallelStreamEmptyBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := arena.New(8 << 20)
	build := keyedRelation(a, nil, 0xB)
	probe := keyedRelation(a, streamKeys(rng, 100, 50), 0xA)
	for jt, want := range map[plan.JoinType]int{
		plan.Inner: 0, plan.LeftOuter: 100, plan.RightOuter: 0, plan.LeftSemi: 0, plan.LeftAnti: 100,
	} {
		cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, 1)
		if got := len(mustCollect(t, HashJoinTyped(Scan(build), Scan(probe), jt), cfg, a)); got != want {
			t.Errorf("%v over an empty build side: %d rows, want %d", jt, got, want)
		}
	}
}

// TestParallelStreamReport pins what a streaming run reports: fan-out 1,
// and the probe relation's page-range morsels as MorselsExecuted.
func TestParallelStreamReport(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := arena.New(16 << 20)
	build := keyedRelation(a, streamKeys(rng, 100, 100), 0xB)
	probe := keyedRelation(a, streamKeys(rng, manyMorsels, 100), 0xA)
	var rep Report
	cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, 1)
	cfg.Workers, cfg.Report = 2, &rep
	mustRun(t, HashJoin(Scan(build), Scan(probe)), cfg, a)
	if rep.JoinFanout != 1 || rep.MorselsExecuted < 2 {
		t.Fatalf("report = fanout %d, %d morsels; want fanout 1 and the probe's several morsels", rep.JoinFanout, rep.MorselsExecuted)
	}
}

// streamFixture is a join whose probe side cuts into several morsels and
// whose every probe row matches, for the teardown tests below.
func streamFixture(tb testing.TB, workers int) (*arena.Arena, *Node, Config) {
	rng := rand.New(rand.NewSource(9))
	a := arena.New(16 << 20)
	build := keyedRelation(a, streamKeys(rng, 200, 100), 0xB)
	probe := keyedRelation(a, streamKeys(rng, 2*manyMorsels, 100), 0xA)
	cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, 1)
	cfg.Workers = workers
	return a, HashJoin(Scan(build), Scan(probe)), cfg
}

// drainSome opens root under a scope, pulls n batches, runs then (if
// any; with n < 0 it never does), and keeps pulling until the stream
// ends or fails; it closes the operator, releases the scope and returns
// the first error. It is Collect with a hook in the middle.
func drainSome(tb testing.TB, root Operator, a *arena.Arena, n int, then func()) (err error) {
	tb.Helper()
	scope := a.Scope()
	defer scope.Release()
	defer arena.RecoverOOM(&err)
	defer root.Close()
	if err := root.Open(); err != nil {
		return err
	}
	var b Batch
	for i := 0; ; i++ {
		if i == n {
			if then == nil {
				return nil
			}
			then()
		}
		ok, err := root.NextBatch(&b)
		if err != nil || !ok {
			return err
		}
	}
}

// fireAt wraps the join root's own row sink so that the k-th match, on
// whichever worker makes it, calls then from inside the join.
func fireAt(root Operator, k int64, then func()) {
	h := root.(*nativeHashJoin)
	own := &joinRows{h: h}
	var n atomic.Int64
	h.sinkFor = func(w int) func([]byte, uint64) {
		sink := own.sinkFor(w)
		return func(build []byte, pref uint64) {
			sink(build, pref)
			if n.Add(1) == k {
				then()
			}
		}
	}
}

// TestParallelStreamCancelMidProbe cancels a running stream from inside
// it, at its 5·G-th match: the next probe group of any worker — each
// checks the context once per group — stops it with the typed cancel
// error, no goroutine stays behind and the arena is back at its
// watermark.
func TestParallelStreamCancelMidProbe(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		a, logical, cfg := streamFixture(t, workers)
		base, used := fault.Goroutines(), a.Used()
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Ctx = ctx
		root := mustCompile(t, logical, cfg)
		fireAt(root, 5*native.DefaultG, cancel)
		err := drainSome(t, root, a, -1, nil)
		var ce *native.CancelError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %T (%v), want *native.CancelError over context.Canceled", workers, err, err)
		}
		if ce.PairsTotal < 2 || ce.PairsDone >= ce.PairsTotal {
			t.Errorf("workers=%d: cancel after %d of %d morsels; want a stop part-way through several", workers, ce.PairsDone, ce.PairsTotal)
		}
		fault.CheckGoroutines(t, base)
		if a.Used() != used {
			t.Errorf("workers=%d: arena at %d after the run, %d before", workers, a.Used(), used)
		}
	}
}

// TestParallelStreamCloseBeforeDrain closes a join after a few of its
// batches: nothing stays behind, and Close returns the rows' scratch
// with the scope.
func TestParallelStreamCloseBeforeDrain(t *testing.T) {
	for _, workers := range []int{2, 4} {
		a, logical, cfg := streamFixture(t, workers)
		base, used := fault.Goroutines(), a.Used()
		if err := drainSome(t, mustCompile(t, logical, cfg), a, 3, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fault.CheckGoroutines(t, base)
		if a.Used() != used {
			t.Errorf("workers=%d: arena at %d after the run, %d before", workers, a.Used(), used)
		}
	}
}

// TestParallelStreamWorkerFault fails the next morsel claim — an error,
// then a panic — armed from inside the join at its first match and
// again part-way through, at its 5·G-th, when the claim is whichever
// worker's morsel runs out first: the drain returns the one typed
// error, nothing leaks.
func TestParallelStreamWorkerFault(t *testing.T) {
	defer fault.Reset()
	for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
		for _, after := range []int{1, 5 * native.DefaultG} {
			a, logical, cfg := streamFixture(t, 3)
			base, used := fault.Goroutines(), a.Used()
			root := mustCompile(t, logical, cfg)
			fireAt(root, int64(after), func() {
				fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: kind, Count: 1})
			})
			err := drainSome(t, root, a, -1, nil)
			fault.Reset()
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("kind=%v after=%d: error %v, want injected-fault class", kind, after, err)
			}
			fault.CheckGoroutines(t, base)
			if a.Used() != used {
				t.Errorf("kind=%v after=%d: arena at %d after the run, %d before", kind, after, a.Used(), used)
			}
		}
	}
}

// TestParallelStreamSkewedMatches joins a probe whose every tuple
// matches 600 build rows, one chain of a single key: every worker's
// sink takes each of the 12 million matches as its chain walk finds
// them, and Run counts them all.
func TestParallelStreamSkewedMatches(t *testing.T) {
	const dup = 600
	a := arena.New(64 << 20)
	same := make([]uint32, 20_000)
	for i := range same {
		same[i] = 42
	}
	build := keyedRelation(a, same[:dup], 0xB)
	probe := keyedRelation(a, same, 0xA)
	for _, workers := range []int{1, 2} {
		cfg := nativeCfg(a, core.SchemeGroup, core.Params{}, 1)
		cfg.Workers = workers
		r, err := Run(mustCompile(t, HashJoin(Scan(build), Scan(probe)), cfg), a)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := dup * 20_000; r.NRows != want || r.KeySum != 42*uint64(want) {
			t.Fatalf("workers=%d: (%d, %d), want (%d, %d)", workers, r.NRows, r.KeySum, want, 42*uint64(want))
		}
	}
}

// rowsDigest identifies a multiset of rows without sorting it: the row
// count and the sum of the rows' hashes.
type rowsDigest struct {
	n   int
	sum uint64
}

var digestSeed = maphash.MakeSeed()

func digestRows(rows [][]byte) rowsDigest {
	d := rowsDigest{n: len(rows)}
	for _, r := range rows {
		d.sum += maphash.Bytes(digestSeed, r)
	}
	return d
}

// TestRecycledTableNeverShowsThrough: a join hands the table it built
// back at Close and the next build, anybody's, overwrites it in place.
// Two pipelines of different build widths and sizes — close enough that
// each fits the other's slab — run 200 times back to back and 200 times
// side by side, over every join type (right outer's sweep reads the
// table last) and with every ninth run closed before it is drained;
// each drained result is the reference multiset, so no neighbour's rows
// and no stale chain ever shows.
func TestRecycledTableNeverShowsThrough(t *testing.T) {
	// Above 1 024 build rows the build is cut over both workers, and a
	// probe side of two morsels puts both workers' probers on the table.
	recycleRounds(t, 200, recyclePipeline(t, 1, 16, 1100, 9000, 1), recyclePipeline(t, 2, 40, 1300, 8500, 1))
}

// TestRecycledJoinerNeverShowsThrough is the same proof for the
// partitioned strategy, whose Joiners — partition entries, pair tables,
// per-worker joiners — are pooled across queries: two pipelines of
// different widths and fan-outs, back to back and side by side, every
// join type, each result the reference multiset.
func TestRecycledJoinerNeverShowsThrough(t *testing.T) {
	recycleRounds(t, 30, recyclePipeline(t, 3, 16, 1500, 4000, 4), recyclePipeline(t, 4, 40, 1200, 3500, 16))
}

// recycled is one pipeline of the recycling proofs, with its reference
// result per join type.
type recycled struct {
	a            *arena.Arena
	build, probe *storage.Relation
	fanout       int
	want         map[plan.JoinType]rowsDigest
}

func recyclePipeline(t *testing.T, seed int64, tuple, nBuild, nProbe, fanout int) *recycled {
	pair, a, _ := testEnv(t, workload.Spec{NBuild: nBuild, TupleSize: tuple, PctMatched: 60,
		MatchRate: 0.5, NProbe: nProbe, Skew: 2, Seed: seed})
	p := &recycled{a: a, build: pair.Build, probe: pair.Probe, fanout: fanout, want: map[plan.JoinType]rowsDigest{}}
	for _, jt := range plan.JoinTypes() {
		p.want[jt] = digestRows(referenceRows(jt, relTuples(p.build), relTuples(p.probe)))
	}
	return p
}

// recycleRounds runs pipes rounds times back to back, then rounds times
// side by side, one join type a run in turn (out of step across the
// pipelines side by side), every ninth run closed before it is drained.
func recycleRounds(t *testing.T, rounds int, pipes ...*recycled) {
	run := func(p *recycled, i int) {
		jt := plan.JoinTypes()[i%len(plan.JoinTypes())]
		cfg := nativeCfg(p.a, core.SchemeGroup, core.Params{}, p.fanout)
		cfg.Workers = 2
		root, err := Compile(HashJoinTyped(Scan(p.build), Scan(p.probe), jt), cfg)
		if err != nil {
			t.Errorf("Compile: %v", err)
			return
		}
		if i%9 == 4 {
			if err := drainSome(t, root, p.a, 3, nil); err != nil {
				t.Errorf("run %d, %v, closed early: %v", i, jt, err)
			}
			return
		}
		got, err := Collect(root, p.a)
		if err != nil || digestRows(got) != p.want[jt] {
			t.Errorf("run %d, %v, %d-byte build rows, fan-out %d: %d rows (%v), reference %d (or same count, different rows)",
				i, jt, p.build.Schema.FixedWidth(), p.fanout, len(got), err, p.want[jt].n)
		}
	}
	for i := 0; i < rounds && !t.Failed(); i++ {
		for _, p := range pipes {
			run(p, i)
		}
	}
	var wg sync.WaitGroup
	for k, p := range pipes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds && !t.Failed(); i++ {
				run(p, i+3*k) // out of step: different join types side by side
			}
		}()
	}
	wg.Wait()
}
