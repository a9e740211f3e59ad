package native

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
	"hashjoin/internal/workload"
)

// Fault-injected teardown proofs for the native join: any single
// injected fault — error, panic, or cancellation — must yield exactly
// one typed error from Join, leave no goroutines behind, and leave the
// spill directory empty. The spilling workload below is the irreducible
// skew case, so every test drives the deepest teardown path (morsel
// workers + spill manager + write-behind/read-ahead workers).

// spillSpec is a workload whose single shared key defeats radix
// partitioning, forcing the out-of-core tier under any small budget.
var spillSpec = workload.Spec{
	NBuild: 2000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 11, Skew: 2000,
}

// spillCfg returns a Config that forces spillSpec through the spill
// tier into dir.
func spillCfg(dir string) Config {
	return Config{Scheme: Group, Fanout: 2, MemBudget: 4 << 10, Workers: 2, SpillDir: dir}
}

// assertClean asserts the join left nothing behind: no goroutines above
// the baseline and no files in the spill parent dir.
func assertClean(t *testing.T, base int, dir string) {
	t.Helper()
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dir)
}

// TestJoinCancelledBeforeStart: a pre-cancelled context returns a typed
// *CancelError without doing any work.
func TestJoinCancelledBeforeStart(t *testing.T) {
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	base := fault.Goroutines()

	cfg := spillCfg(dir)
	cfg.Ctx = ctx
	_, err := Join(pair.Build, pair.Probe, cfg)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *CancelError", err, err)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error does not match both sentinels: %v", err)
	}
	if ce.PairsDone != 0 {
		t.Fatalf("pre-cancelled join reports %d pairs done", ce.PairsDone)
	}
	assertClean(t, base, dir)
}

// TestJoinCancelMidSpill cancels a running spilling join: injected page
// delays stretch the spill phase so the cancel lands mid-flight, and
// the join must stop within a page boundary with a typed error, no
// leaked workers, and an empty spill dir.
func TestJoinCancelMidSpill(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	// 2ms per spilled page write makes the spill phase last tens of
	// milliseconds, so a 5ms cancel always lands mid-spill.
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindDelay, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()

	cfg := spillCfg(dir)
	cfg.Ctx = ctx
	start := time.Now()
	_, err := Join(pair.Build, pair.Probe, cfg)
	elapsed := time.Since(start)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *CancelError", err, err)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel error does not match both sentinels: %v", err)
	}
	if ce.PairsDone >= ce.PairsTotal {
		t.Fatalf("cancelled join claims all %d pairs done", ce.PairsTotal)
	}
	// The join must not have run to completion under the delays: with
	// dozens of delayed pages a full run takes far longer than this.
	if elapsed > 2*time.Second {
		t.Fatalf("join ran %v after cancel; cooperative checks missed", elapsed)
	}
	assertClean(t, base, dir)
}

// TestJoinDeadlineExceeded: a context deadline surfaces as a
// *CancelError matching context.DeadlineExceeded.
func TestJoinDeadlineExceeded(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindDelay, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()

	cfg := spillCfg(dir)
	cfg.Ctx = ctx
	_, err := Join(pair.Build, pair.Probe, cfg)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline error does not match both sentinels: %v", err)
	}
	assertClean(t, base, dir)
}

// TestJoinWorkerPanicContained: an injected panic in a morsel worker is
// recovered into a typed error; the Joiner survives and joins correctly
// afterwards.
func TestJoinWorkerPanicContained(t *testing.T) {
	defer fault.Reset()
	spec := workload.Spec{NBuild: 5000, TupleSize: 20, MatchesPerBuild: 1, Seed: 3}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	base := fault.Goroutines()

	fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: fault.KindPanic, Count: 1})
	jn := NewJoiner()
	_, err := jn.Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 8, Workers: 4})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v, want injected-fault class", err)
	}
	fault.CheckGoroutines(t, base)

	fault.Reset()
	r, err := jn.Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 8, Workers: 4})
	if err != nil {
		t.Fatalf("join after contained panic: %v", err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("post-panic join got (%d, %d), want (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
}

// TestPartitionMorselFault: a partition morsel passes the worker gate.
// Armed before a join big enough to partition on the workers, a fault —
// an error, then a panic — fires in the first pool job, the counting
// pass, and the join stops with the injected error before it scatters
// or joins a pair, leaving no goroutine behind.
func TestPartitionMorselFault(t *testing.T) {
	defer fault.Reset()
	spec := workload.Spec{NBuild: 50_000, TupleSize: 16, MatchesPerBuild: 2, Seed: 14}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	if n := pair.Build.NTuples + pair.Probe.NTuples; n < 2*minPartMorsel {
		t.Fatalf("%d tuples stay below the partition floor", n)
	}
	for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
		base := fault.Goroutines()
		fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: kind, Count: 1})
		pool := &countingPool{}
		_, err := Join(pair.Build, pair.Probe, Config{Fanout: 8, Workers: 2, Pool: pool})
		fault.Reset()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("kind %v: error %v, want injected-fault class", kind, err)
		}
		if pool.jobs != 1 {
			t.Fatalf("kind %v: %d pool jobs ran; the fault belongs to the first, the counting pass", kind, pool.jobs)
		}
		fault.CheckGoroutines(t, base)
	}
}

// TestJoinSpillFaultsTyped: a permanent injected error at each spill
// site yields exactly one typed error through the whole stack, with
// clean teardown.
func TestJoinSpillFaultsTyped(t *testing.T) {
	for _, site := range []string{
		fault.SiteSpillCreate, fault.SiteSpillWrite, fault.SiteSpillRead, fault.SiteSpillSync,
	} {
		t.Run(site, func(t *testing.T) {
			defer fault.Reset()
			a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
			pair := workload.Generate(a, spillSpec)
			dir := t.TempDir()
			base := fault.Goroutines()

			fault.Enable(site, fault.Fault{Kind: fault.KindError})
			cfg := spillCfg(dir)
			_, err := Join(pair.Build, pair.Probe, cfg)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("error %v, want injected-fault class", err)
			}
			assertClean(t, base, dir)
		})
	}
}

// TestJoinSpillPanicContained: an injected panic inside a write-behind
// worker must not escape Join or deadlock its teardown.
func TestJoinSpillPanicContained(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindPanic, Count: 1})
	_, err := Join(pair.Build, pair.Probe, spillCfg(dir))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v, want injected-fault class", err)
	}
	assertClean(t, base, dir)
}

// TestJoinArenaFaultIsOOM: an injected arena-admission fault presents
// as the arena saying no — an error in the out-of-memory class.
func TestJoinArenaFaultIsOOM(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteArenaAlloc, fault.Fault{Kind: fault.KindError})
	_, err := Join(pair.Build, pair.Probe, spillCfg(dir))
	if !errors.Is(err, arena.ErrOutOfMemory) {
		t.Fatalf("error %v, want out-of-memory class", err)
	}
	assertClean(t, base, dir)
}

// TestJoinFaultMatrix is the randomized sweep the CI fault matrix
// drives through HJ_FAULT_PROB: spill faults armed at the configured
// probability, repeated joins, and after every run the same invariant —
// either a correct result or one classified error, never a wrong
// answer, a leak, or an orphan file.
func TestJoinFaultMatrix(t *testing.T) {
	defer fault.Reset()
	prob := fault.ProbFromEnv()
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()
	mark := a.Used()

	jn := NewJoiner()
	failures := 0
	for i := 0; i < 6; i++ {
		a.Truncate(mark) // reclaim the previous run's spill pool
		fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError, Prob: prob, Count: 1, Seed: int64(100 + i)})
		fault.Enable(fault.SiteSpillRead, fault.Fault{Kind: fault.KindError, Prob: prob, Count: 1, Seed: int64(200 + i)})
		fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: fault.KindError, Prob: prob, Count: 1, Seed: int64(300 + i)})
		r, err := jn.Join(pair.Build, pair.Probe, spillCfg(dir))
		fault.Reset()
		if err != nil {
			failures++
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("run %d: unclassified error %v", i, err)
			}
		} else if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
			t.Fatalf("run %d: wrong result (%d, %d), want (%d, %d)",
				i, r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
		fault.CheckNoFiles(t, dir)
	}
	if prob >= 1 && failures != 6 {
		t.Fatalf("at probability 1 every run must fail; %d of 6 did", failures)
	}
	fault.CheckGoroutines(t, base)
}

// TestJoinTempDirRemovedOnPanic is the crash-safety check at the Join
// boundary: a panic injected mid-spill-write must still remove the
// per-join temp dir, leaving no orphan files for the next run to trip
// over.
func TestJoinTempDirRemovedOnPanic(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindPanic, Count: 1})
	_, err := Join(pair.Build, pair.Probe, spillCfg(dir))
	if err == nil {
		t.Fatal("injected panic produced no error")
	}
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatalf("ReadDir: %v", rerr)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("orphan spill files after panic: %v", names)
	}
}
