package engine

import (
	"cmp"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"hashjoin/internal/core"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// FuzzPipelineParity fuzzes the batch geometry of the full pipeline:
// group size G down to 1, pipeline depth D, scheme, native fanout, and
// relation sizes that do not divide the batch size. For every input the
// two backends must produce identical sorted group lists, and the
// derived join totals must match the workload's ground truth.
func FuzzPipelineParity(f *testing.F) {
	f.Add(uint8(19), uint8(1), uint8(1), uint8(0), uint8(40), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(33), int64(2))  // G=1 degenerate groups
	f.Add(uint8(3), uint8(2), uint8(2), uint8(2), uint8(50), int64(3))  // G does not divide |R|
	f.Add(uint8(8), uint8(4), uint8(0), uint8(2), uint8(21), int64(4))  // baseline, morsel
	f.Add(uint8(25), uint8(3), uint8(2), uint8(0), uint8(64), int64(5)) // G > default

	f.Fuzz(func(t *testing.T, gRaw, dRaw, schemeRaw, fanoutRaw, nRaw uint8, seed int64) {
		g := 1 + int(gRaw)%32
		d := 1 + int(dRaw)%4
		scheme := []core.Scheme{core.SchemeBaseline, core.SchemeGroup, core.SchemePipelined}[int(schemeRaw)%3]
		fanout := 1 << (int(fanoutRaw) % 3) // 1 (streaming), 2, 4 (morsel)
		nBuild := 1 + int(nRaw)             // 1..256, rarely divisible by g

		spec := workload.Spec{
			NBuild:          nBuild,
			TupleSize:       16,
			MatchesPerBuild: 1 + int(seed%3+3)%3,
			PctMatched:      80,
			Skew:            1 + int(nRaw)%2,
			Seed:            seed,
		}
		pair, a, m := testEnv(t, spec)
		params := core.Params{G: g, D: d}
		plan := HashAggregate(HashJoin(Scan(pair.Build), Scan(pair.Probe)), 4, nBuild)

		sim := mustGroups(t, plan, simCfg(m, scheme, params), a)
		nat := mustGroups(t, plan, nativeCfg(a, scheme, params, fanout), a)
		if !reflect.DeepEqual(sim, nat) {
			t.Fatalf("G=%d D=%d %v fanout=%d n=%d: groups differ (sim %d, native %d)",
				g, d, scheme, fanout, nBuild, len(sim), len(nat))
		}
		var nOut, keySum uint64
		for _, grp := range sim {
			nOut += grp.Count
			keySum += uint64(grp.Key) * grp.Count
		}
		if nOut != uint64(pair.ExpectedMatches) || keySum != pair.KeySum {
			t.Fatalf("G=%d D=%d %v fanout=%d n=%d: derived (%d, %d), want (%d, %d)",
				g, d, scheme, fanout, nBuild, nOut, keySum, pair.ExpectedMatches, pair.KeySum)
		}
	})
}

// relTuples copies every tuple straight off the relation's pages — the
// raw input, independent of any join machinery.
func relTuples(rel *storage.Relation) [][]byte {
	tuples := make([][]byte, 0, rel.NTuples)
	rel.Each(func(tuple []byte, _ uint32) {
		tuples = append(tuples, append([]byte(nil), tuple...))
	})
	return tuples
}

// referenceRows computes a join's full-width logical output rows with a
// naive nested loop over the raw tuples, following the output-row
// convention: matches are build||probe, a left-outer survivor has its
// build half zeroed (so its key reads 0), semi/anti rows are the probe
// tuple alone, and a right-outer unmatched build row has its probe half
// zeroed.
func referenceRows(jt plan.JoinType, build, probe [][]byte) [][]byte {
	key := func(t []byte) uint32 { return binary.LittleEndian.Uint32(t) }
	bw, pw := len(build[0]), len(probe[0])
	concat := func(b, p []byte) []byte {
		row := make([]byte, bw+pw)
		copy(row, b)
		copy(row[bw:], p)
		return row
	}
	var rows [][]byte
	buildMatched := make([]bool, len(build))
	for _, p := range probe {
		found := false
		for i, b := range build {
			if key(b) != key(p) {
				continue
			}
			found = true
			buildMatched[i] = true
			if jt.ProbeOnly() {
				break
			}
			rows = append(rows, concat(b, p))
		}
		switch {
		case jt == plan.LeftSemi && found, jt == plan.LeftAnti && !found:
			rows = append(rows, p)
		case jt == plan.LeftOuter && !found:
			rows = append(rows, concat(nil, p))
		}
	}
	if jt == plan.RightOuter {
		for i, b := range build {
			if !buildMatched[i] {
				rows = append(rows, concat(b, nil))
			}
		}
	}
	return rows
}

// aggregateRows groups rows by their leading key, counting and summing
// the u32 at valueOff, and returns the groups in key order — what
// Groups returns for an aggregate over those rows.
func aggregateRows(rows [][]byte, valueOff int) []Group {
	at := make(map[uint32]int)
	var gs []Group
	for _, r := range rows {
		k := binary.LittleEndian.Uint32(r)
		i, ok := at[k]
		if !ok {
			i = len(gs)
			at[k] = i
			gs = append(gs, Group{Key: k})
		}
		gs[i].Count++
		gs[i].Sum += uint64(binary.LittleEndian.Uint32(r[valueOff:]))
	}
	slices.SortFunc(gs, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) })
	return gs
}

// FuzzJoinTypeParity fuzzes every join type and the aggregate's value
// offset — anywhere in the output row, so the span the native join
// emits for it lands in the build half, the probe half, or across the
// seam — against a naive nested-loop reference computed from the raw
// relation bytes, across both backends, the native streaming join and
// the morsel path, on 1, 2 or 4 workers, over probe sides from a
// handful of rows to several streaming morsels. Every config also drains
// the bare join through Run — which a native join answers by counting on
// its workers — against the reference's row count and key sum. The
// workload generator's own ground truth is deliberately not used: the
// reference re-derives the answer from the tuples, so a generator bug
// cannot mask an engine bug.
func FuzzJoinTypeParity(f *testing.F) {
	f.Add(uint8(0), uint8(40), uint8(50), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(33), uint8(0), uint8(2), uint8(1), uint8(10), uint8(1), uint8(0), int64(2))  // left-outer, skewed build, value across the seam
	f.Add(uint8(2), uint8(64), uint8(90), uint8(0), uint8(2), uint8(16), uint8(2), uint8(0), int64(3)) // right-outer, morsel, 4 workers, value in the probe half
	f.Add(uint8(3), uint8(5), uint8(100), uint8(1), uint8(0), uint8(8), uint8(0), uint8(0), int64(4))  // semi, tiny build, last 4 bytes
	f.Add(uint8(4), uint8(21), uint8(10), uint8(0), uint8(1), uint8(3), uint8(1), uint8(0), int64(5))  // anti, sparse matches, unaligned value
	f.Add(uint8(0), uint8(90), uint8(70), uint8(1), uint8(2), uint8(24), uint8(0), uint8(0), int64(6)) // inner, morsel, last 4 bytes
	f.Add(uint8(2), uint8(70), uint8(60), uint8(1), uint8(0), uint8(5), uint8(1), uint8(6), int64(7))  // right-outer, streaming over several probe morsels, 2 workers
	f.Add(uint8(4), uint8(99), uint8(40), uint8(2), uint8(0), uint8(9), uint8(2), uint8(6), int64(8))  // anti, the same, 4 workers

	f.Fuzz(func(t *testing.T, jtRaw, nRaw, mrRaw, skewRaw, fanoutRaw, offRaw, workersRaw, probeRaw uint8, seed int64) {
		jt := plan.JoinTypes()[int(jtRaw)%len(plan.JoinTypes())]
		nBuild := 1 + int(nRaw) // 1..256
		spec := workload.Spec{
			NBuild:     nBuild,
			TupleSize:  16,
			PctMatched: 100,
			MatchRate:  float64(int(mrRaw)%101) / 100,
			Skew:       1 + int(skewRaw)%3,
			// Up to 64x: past a few thousand rows the streaming join cuts
			// the probe side into several morsels and its workers share it.
			NProbe: (1 + 2*nBuild) << (int(probeRaw) % 7),
			Seed:   seed,
		}
		pair, a, m := testEnv(t, spec)
		join := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		valueOff := 4 + int(offRaw)%(join.Width()-7) // 4 .. width-4
		ref := referenceRows(jt, relTuples(pair.Build), relTuples(pair.Probe))
		want, wantRun := aggregateRows(ref, valueOff), referenceResult(ref)
		logical := HashAggregate(join, valueOff, nBuild)

		fanout := 1 << (int(fanoutRaw) % 3) // 1 (streaming), 2, 4 (morsel)
		native := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), fanout)
		native.Workers = 1 << (int(workersRaw) % 3) // 1, 2, 4
		cfgs := map[string]Config{
			"sim":    simCfg(m, core.SchemeGroup, core.DefaultParams()),
			"native": native,
		}
		for name, cfg := range cfgs {
			got := mustGroups(t, logical, cfg, a)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %s fanout=%d workers=%d n=%dx%d mr=%.2f valueOff=%d: %d groups vs reference %d",
					jt, name, fanout, native.Workers, nBuild, spec.NProbe, spec.MatchRate, valueOff, len(got), len(want))
			}
			if got := mustRun(t, join, cfg, a); got != wantRun {
				t.Fatalf("%v %s fanout=%d workers=%d n=%dx%d mr=%.2f: Run = %+v, reference %+v",
					jt, name, fanout, native.Workers, nBuild, spec.NProbe, spec.MatchRate, got, wantRun)
			}
		}
	})
}
