package native

import (
	"fmt"
	"sync"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// checkTyped joins pair under cfg and compares against the workload's
// exact per-join-type ground truth.
func checkTyped(t *testing.T, pair *workload.Pair, cfg Config) Result {
	t.Helper()
	r, err := Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("%v join: %v", cfg.JoinType, err)
	}
	wantN, wantSum := pair.Expected(cfg.JoinType)
	if r.NOutput != wantN || r.KeySum != wantSum {
		t.Fatalf("%v join = (%d, %d), want (%d, %d)",
			cfg.JoinType, r.NOutput, r.KeySum, wantN, wantSum)
	}
	return r
}

// TestJoinTypesParity runs every join type against the workload ground
// truth across schemes and fan-outs, at a mid selectivity so matched
// and unmatched rows exist on both sides.
func TestJoinTypesParity(t *testing.T) {
	spec := workload.Spec{NBuild: 3000, TupleSize: 24, PctMatched: 60,
		MatchRate: 0.6, NProbe: 5000, Seed: 11}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	if pair.ProbeMatched == 0 || pair.ProbeMatched == spec.NProbe ||
		pair.UnmatchedBuildRows == 0 {
		t.Fatalf("degenerate workload: %+v", pair)
	}
	for _, jt := range plan.JoinTypes() {
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			for _, fanout := range []int{1, 8} {
				t.Run(fmt.Sprintf("%v/%v/fanout%d", jt, scheme, fanout), func(t *testing.T) {
					checkTyped(t, pair, Config{
						JoinType: jt, Scheme: scheme, Fanout: fanout, Workers: 2})
				})
			}
		}
	}
}

// TestJoinTypesSelectivityEdges checks the all-miss and all-hit ends of
// the MatchRate knob, where anti/outer output is everything or nothing.
func TestJoinTypesSelectivityEdges(t *testing.T) {
	for _, mr := range []float64{0.001, 1} {
		spec := workload.Spec{NBuild: 500, TupleSize: 16, MatchRate: mr,
			NProbe: 1000, Seed: 7}
		a := arena.New(workload.ArenaBytesFor(spec))
		pair := workload.Generate(a, spec)
		for _, jt := range plan.JoinTypes() {
			t.Run(fmt.Sprintf("mr%v/%v", mr, jt), func(t *testing.T) {
				checkTyped(t, pair, Config{JoinType: jt, Scheme: Group})
			})
		}
	}
}

// TestJoinTypesSpillParity forces the out-of-core tier with irreducible
// duplicate-code skew (4 distinct keys, 750-row chains, 4 KB budget)
// and checks every join type against ground truth — the deferred
// probe-bitmap path and the per-chunk right-outer sweeps — with and
// without the halving pressure signal (see pressures).
func TestJoinTypesSpillParity(t *testing.T) {
	spec := workload.Spec{NBuild: 3000, TupleSize: 20, Skew: 750,
		MatchRate: 0.4, NProbe: 3000, Seed: 13}
	a := arena.New(workload.ArenaBytesFor(spec) + 8<<20)
	pair := workload.Generate(a, spec)
	if pair.UnmatchedBuildRows == 0 || pair.ProbeMatched == spec.NProbe {
		t.Fatalf("degenerate workload: %+v", pair)
	}
	for _, jt := range plan.JoinTypes() {
		for _, pressure := range pressures {
			t.Run(fmt.Sprintf("%v/hybrid=%v", jt, pressure), func(t *testing.T) {
				r := checkTyped(t, pair, pressed(Config{
					JoinType: jt, Scheme: Group, Fanout: 4, MemBudget: 4 << 10,
					Workers: 2, SpillDir: t.TempDir()}, pressure))
				if r.SpilledPartitions == 0 {
					t.Fatalf("workload did not reach the spill tier: %+v", r)
				}
			})
		}
	}
}

// TestJoinTypesHybridSeamParity drives the hybrid resident/spilled seam
// on a Zipf workload: hot ranks join partly resident and partly out of
// core, so probe-side match bits must carry across the seam.
func TestJoinTypesHybridSeamParity(t *testing.T) {
	spec := workload.Spec{NBuild: 20000, NProbe: 3000, TupleSize: 20,
		ZipfS: 1.1, ZipfKeys: 2048, Seed: 23}
	a := arena.New(workload.ArenaBytesFor(spec) + 16<<20)
	pair := workload.Generate(a, spec)
	if pair.UnmatchedBuildRows == 0 || pair.ProbeMatched == spec.NProbe {
		t.Fatalf("degenerate workload: probeMatched=%d unmatchedBuild=%d",
			pair.ProbeMatched, pair.UnmatchedBuildRows)
	}
	for _, jt := range plan.JoinTypes() {
		t.Run(jt.String(), func(t *testing.T) {
			r := checkTyped(t, pair, Config{
				JoinType: jt, Scheme: Group, Fanout: 8, MemBudget: 64 << 10,
				Workers: 4, SpillDir: t.TempDir()})
			if r.SpilledPartitions == 0 || r.VictimPartitions == 0 {
				t.Fatalf("workload did not cross the hybrid seam: %+v", r)
			}
		})
	}
}

// buildSideOf builds a BuildSide over the 8-byte tuples entries address,
// appended in entry order to a fresh relation.
func buildSideOf(t *testing.T, a *arena.Arena, entries []Entry, cfg BuildConfig) *BuildSide {
	t.Helper()
	rel := storage.NewRelation(a, storage.KeyPayloadSchema(8), 4096)
	for _, e := range entries {
		rel.Append(a.Bytes(e.Ref, 8), e.Code)
	}
	bs, err := BuildRelation(rel, 8, cfg)
	if err != nil {
		t.Fatalf("BuildRelation: %v", err)
	}
	return bs
}

// TestSharedBuildSideTypedProbers proves one immutable BuildSide serves
// concurrent typed probe streams without cross-talk: each prober owns
// its match bitmaps, so under -race this doubles as the data-race proof
// for the semi short-circuit and the right-outer build bits.
func TestSharedBuildSideTypedProbers(t *testing.T) {
	a := arena.New(4 << 20)
	codes := make([]uint32, 400)
	for i := range codes {
		codes[i] = uint32(i) * 2654435761
	}
	build := mkEntries(t, a, codes)
	// Probe = all build entries (hits) + as many guaranteed misses
	// (disjoint codes, so the code filter rejects them).
	missCodes := make([]uint32, len(codes))
	for i := range missCodes {
		missCodes[i] = codes[i] ^ 0xdeadbeef
	}
	miss := mkEntries(t, a, missCodes)
	probe := append(append([]Entry{}, build...), miss...)
	var hitSum, missSum uint64
	for _, e := range build {
		hitSum += uint64(e.Key)
	}
	for _, e := range miss {
		missSum += uint64(e.Key)
	}

	bs := buildSideOf(t, a, build, BuildConfig{})

	type want struct {
		jt  plan.JoinType
		n   int
		sum uint64
	}
	wants := []want{
		{plan.LeftSemi, len(build), hitSum},
		{plan.LeftSemi, len(build), hitSum},
		{plan.LeftAnti, len(miss), missSum},
		{plan.RightOuter, len(build), hitSum}, // all build rows matched: no sweep output
		{plan.LeftOuter, len(probe), hitSum},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(wants))
	for i, w := range wants {
		wg.Add(1)
		go func(i int, w want) {
			defer wg.Done()
			p := bs.NewTypedProber(w.jt, Group, 0, 0)
			for lo := 0; lo < len(probe); lo += p.G() {
				hi := min(lo+p.G(), len(probe))
				p.ProbeBatch(probe[lo:hi], func([]byte, uint64) {})
			}
			p.EmitUnmatchedBuild(func([]byte, uint64) {})
			if p.NOutput() != w.n || p.KeySum() != w.sum {
				errs[i] = fmt.Errorf("%v prober = (%d, %d), want (%d, %d)",
					w.jt, p.NOutput(), p.KeySum(), w.n, w.sum)
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestTypedProberRightOuterSweep checks the streaming right-outer path
// end to end: a probe stream touching half the build side must sweep
// exactly the other half, with probeRef 0.
func TestTypedProberRightOuterSweep(t *testing.T) {
	a := arena.New(1 << 20)
	codes := make([]uint32, 100)
	for i := range codes {
		codes[i] = uint32(i) * 40503
	}
	build := mkEntries(t, a, codes)
	probe := append([]Entry{}, build[:50]...)

	p := buildSideOf(t, a, build, BuildConfig{Scheme: Pipelined}).NewTypedProber(plan.RightOuter, Pipelined, 0, 0)
	p.ProbeBatch(probe, func(b []byte, ref uint64) {
		if b == nil || ref == 0 {
			t.Fatalf("match emitted as unmatched: build=%v ref=%d", b, ref)
		}
	})
	swept := 0
	p.EmitUnmatchedBuild(func(b []byte, ref uint64) {
		if b == nil || ref != 0 {
			t.Fatalf("sweep emitted probeRef %d", ref)
		}
		swept++
	})
	var want uint64
	for _, e := range build {
		want += uint64(e.Key)
	}
	if swept != 50 || p.NOutput() != 100 || p.KeySum() != want {
		t.Fatalf("swept=%d NOutput=%d KeySum=%d, want 50/100/%d",
			swept, p.NOutput(), p.KeySum(), want)
	}
}
