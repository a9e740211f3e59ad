package engine

import (
	"context"
	"errors"
	"testing"

	"hashjoin/internal/core"
	"hashjoin/internal/fault"
	"hashjoin/internal/native"
	"hashjoin/internal/workload"
)

// Cancellation and fault containment at the engine layer: every
// compiled plan — scan-only, join, aggregate, either backend, either
// native strategy — must stop on a cancelled context with an error that
// matches the context's own sentinel, and injected worker faults must
// surface through Run/Groups as one typed error.

// TestCancelledContextBothBackends runs the full plan shapes under a
// pre-cancelled context on both backends: every drain must fail with a
// cancellation-class error, never return a partial result as success.
func TestCancelledContextBothBackends(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 16, MatchesPerBuild: 1, Seed: 8}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, backend := range []Backend{Sim, Native} {
		for _, agg := range []bool{false, true} {
			pair, a, m := testEnv(t, spec)
			plan := HashJoin(Scan(pair.Build), Scan(pair.Probe))
			if agg {
				plan = HashAggregate(plan, 4, spec.NBuild)
			}
			var cfg Config
			if backend == Sim {
				cfg = simCfg(m, core.SchemeGroup, core.DefaultParams())
			} else {
				cfg = nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 2)
			}
			cfg.Ctx = ctx
			op := mustCompile(t, plan, cfg)
			var err error
			if agg {
				_, err = Groups(op, a)
			} else {
				_, err = Run(op, a)
			}
			if err == nil {
				t.Fatalf("%v agg=%v: cancelled run returned nil error", backend, agg)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v agg=%v: error %v does not match context.Canceled", backend, agg, err)
			}
		}
	}
}

// faultShape is one plan a teardown test runs: a bare join or an
// aggregate root over it, at a native fan-out, on a workload of nBuild
// build rows, each matched twice, drained by Groups (an aggregate), Run
// or, with collect set, Collect.
type faultShape struct {
	name    string
	agg     bool
	fanout  int
	nBuild  int
	collect bool
}

// faultShapes are the shapes every teardown test covers: a bare join
// that Run counts on either strategy's workers, an aggregate pushed into
// them, each also over a pair big enough to partition on the workers —
// there a fault fires inside a partition morsel, the first claim — and a
// partitioned join whose rows Collect pulls from the join's own sink.
var faultShapes = []faultShape{
	{"join, fanout 4", false, 4, 1000, false},
	{"join, fanout 1", false, 1, 1000, false},
	{"join, partitioned on the workers", false, 4, 50_000, false},
	{"join drained by Collect, fanout 4", false, 4, 1000, true},
	{"aggregate, fanout 1", true, 1, 1000, false},
	{"aggregate, fanout 4", true, 4, 1000, false},
	{"aggregate, partitioned on the workers", true, 4, 50_000, false},
}

// drainFailing runs shape on two workers, once setup has armed a fault
// or set a context, drains it and returns the error,
// having checked that no partial result came back, no goroutine stayed
// behind and the arena is back at its watermark.
func drainFailing(t *testing.T, shape faultShape, seed int64, setup func(*Config)) error {
	t.Helper()
	spec := workload.Spec{NBuild: shape.nBuild, TupleSize: 16, MatchesPerBuild: 2, Seed: seed}
	pair, a, _ := testEnv(t, spec)
	base, used := fault.Goroutines(), a.Used()
	plan := HashJoin(Scan(pair.Build), Scan(pair.Probe))
	if shape.agg {
		plan = HashAggregate(plan, 4, spec.NBuild)
	}
	cfg := nativeCfg(a, core.SchemeGroup, core.DefaultParams(), shape.fanout)
	cfg.Workers = 2
	setup(&cfg)
	op := mustCompile(t, plan, cfg)
	var err error
	switch {
	case shape.agg:
		var gs []Group
		gs, err = Groups(op, a)
		if gs != nil {
			t.Errorf("%s: %d groups returned beside error %v", shape.name, len(gs), err)
		}
	case shape.collect:
		var rows [][]byte
		rows, err = Collect(op, a)
		if rows != nil {
			t.Errorf("%s: %d rows returned beside error %v", shape.name, len(rows), err)
		}
	default:
		var r Result
		r, err = Run(op, a)
		if r != (Result{}) {
			t.Errorf("%s: result %+v returned beside error %v", shape.name, r, err)
		}
	}
	fault.CheckGoroutines(t, base)
	if a.Used() != used {
		t.Errorf("%s: arena at %d after the run, %d before", shape.name, a.Used(), used)
	}
	return err
}

// TestCancelMorselJoinTyped checks the native morsel strategy surfaces
// cancellation as the typed *native.CancelError through the engine's
// drains, so the public API's error contract holds for compiled plans
// too — an aggregate root's included.
func TestCancelMorselJoinTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shape := range faultShapes {
		err := drainFailing(t, shape, 9, func(cfg *Config) { cfg.Ctx = ctx })
		var ce *native.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %T (%v), want *native.CancelError", shape.name, err, err)
		}
		if !errors.Is(err, native.ErrCancelled) {
			t.Fatalf("%s: error %v does not match ErrCancelled", shape.name, err)
		}
	}
}

// TestNilContextUnbounded pins the zero-value contract: a Config with
// no Ctx compiles and runs exactly as before.
func TestNilContextUnbounded(t *testing.T) {
	spec := workload.Spec{NBuild: 200, TupleSize: 16, MatchesPerBuild: 1, Seed: 10}
	pair, a, _ := testEnv(t, spec)
	r := mustRun(t, HashJoin(Scan(pair.Build), Scan(pair.Probe)),
		nativeCfg(a, core.SchemeGroup, core.DefaultParams(), 1), a)
	if r.NRows != pair.ExpectedMatches {
		t.Fatalf("NRows = %d, want %d", r.NRows, pair.ExpectedMatches)
	}
}

// TestWorkerFaultThroughEngine: an injected morsel-worker fault inside
// a compiled plan surfaces as one typed error from the drain, with no
// goroutines left behind.
func TestWorkerFaultThroughEngine(t *testing.T) {
	defer fault.Reset()
	for _, shape := range faultShapes {
		err := drainFailing(t, shape, 12, func(*Config) {
			fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: fault.KindError, Count: 1})
		})
		fault.Reset()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: error %v, want injected-fault class", shape.name, err)
		}
	}
}

// TestWorkerPanicThroughEngine: same proof for an injected panic — the
// worker the join waits on must recover it into an error, not crash the
// process or deadlock the operator.
func TestWorkerPanicThroughEngine(t *testing.T) {
	defer fault.Reset()
	for _, shape := range faultShapes {
		err := drainFailing(t, shape, 13, func(*Config) {
			fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: fault.KindPanic, Count: 1})
		})
		fault.Reset()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: error %v, want injected-fault class", shape.name, err)
		}
	}
}
