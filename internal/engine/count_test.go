package engine

import (
	"encoding/binary"
	"errors"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/plan"
	"hashjoin/internal/workload"
)

// Run over a native hash join root reads only the row count and each
// row's leading key, so the join counts its rows where it matches them
// (joinCounter) on its workers instead of writing them, and the totals
// are the reference's.

// referenceResult is what Run returns for rows: their count and the sum
// of each row's leading u32.
func referenceResult(rows [][]byte) Result {
	r := Result{NRows: len(rows)}
	for _, row := range rows {
		r.KeySum += uint64(binary.LittleEndian.Uint32(row))
	}
	return r
}

// TestRunCountsJoinOnWorkers pins that a counted join writes no row:
// with no arena headroom left after the inputs, Run still drains every
// join type on both native strategies and 1, 2 or 4 workers to the
// reference totals, while Collect — whose rows the join writes into
// arena scratch — runs out of memory on the same plan.
func TestRunCountsJoinOnWorkers(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 20, PctMatched: 70,
		MatchRate: 0.55, NProbe: 20_000, Skew: 2, Seed: 71}
	pair, a, _ := testEnv(t, spec)
	defer a.SetBudget(0)
	for _, jt := range plan.JoinTypes() {
		join := HashJoinTyped(Scan(pair.Build), Scan(pair.Probe), jt)
		want := referenceResult(referenceRows(jt, relTuples(pair.Build), relTuples(pair.Probe)))
		for _, fanout := range []int{1, 4} {
			for _, workers := range []int{1, 2, 4} {
				cfg := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), fanout)
				cfg.Workers = workers
				a.SetBudget(a.Used())
				got, err := Run(mustCompile(t, join, cfg), a)
				if err != nil || got != want {
					t.Fatalf("%v fanout=%d workers=%d: Run = %+v, %v; want %+v with no arena headroom",
						jt, fanout, workers, got, err, want)
				}
				if _, err := Collect(mustCompile(t, join, cfg), a); !errors.Is(err, arena.ErrOutOfMemory) {
					t.Fatalf("%v fanout=%d workers=%d: Collect with no arena headroom: %v, want out of memory",
						jt, fanout, workers, err)
				}
				a.SetBudget(0)
			}
		}
	}
}

// TestRunMaterializedProbeJoin drains a join whose probe child is a
// filter, which both strategies materialize and probe on their workers:
// Open has counted the whole join when it returns, before any
// NextBatch, and both agree with the reference on every join type.
func TestRunMaterializedProbeJoin(t *testing.T) {
	spec := workload.Spec{NBuild: 200, TupleSize: 16, PctMatched: 70,
		MatchRate: 0.55, NProbe: 600, Skew: 2, Seed: 72}
	pair, a, _ := testEnv(t, spec)
	pred := KeyBetween(0, 1<<31)
	var kept [][]byte
	for _, p := range relTuples(pair.Probe) {
		if k := binary.LittleEndian.Uint32(p); k >= pred.Lo && k <= pred.Hi {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 || len(kept) == spec.NProbe {
		t.Fatalf("filter keeps %d of %d probe rows; want a selective one", len(kept), spec.NProbe)
	}
	for _, jt := range plan.JoinTypes() {
		join := HashJoinTyped(Scan(pair.Build), Filter(Scan(pair.Probe), pred), jt)
		want := referenceResult(referenceRows(jt, relTuples(pair.Build), kept))
		for _, fanout := range []int{1, 4} {
			cfg := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), fanout)
			cfg.Workers = 2
			if got := mustRun(t, join, cfg, a); got != want {
				t.Errorf("%v fanout=%d: Run = %+v, want %+v", jt, fanout, got, want)
			}
			scope := a.Scope()
			h := mustCompile(t, join, cfg).(*nativeHashJoin)
			c := countJoin(h)
			if err := h.Open(); err != nil {
				t.Fatalf("%v fanout=%d: Open: %v", jt, fanout, err)
			}
			if got := c.result(); len(c.parts) == 0 || got != want {
				t.Errorf("%v fanout=%d: after Open, %d counters read %+v; want the join counted, %+v",
					jt, fanout, len(c.parts), got, want)
			}
			h.Close()
			scope.Release()
		}
	}
}
