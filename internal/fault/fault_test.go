package fault

import (
	"errors"
	"os"
	"testing"
	"time"
)

func TestUnarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit(SiteSpillWrite); err != nil {
		t.Fatalf("unarmed Hit = %v, want nil", err)
	}
	if got := Hits(SiteSpillWrite); got != 0 {
		t.Fatalf("Hits on unarmed site = %d, want 0", got)
	}
}

func TestErrorInjection(t *testing.T) {
	defer Reset()
	Enable(SiteSpillWrite, Fault{Kind: KindError})
	err := Hit(SiteSpillWrite)
	if err == nil {
		t.Fatal("armed Hit = nil, want injected error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) = false", err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != SiteSpillWrite {
		t.Fatalf("err = %v, want *InjectedError at %s", err, SiteSpillWrite)
	}
	// A different site stays unarmed.
	if err := Hit(SiteSpillRead); err != nil {
		t.Fatalf("other site Hit = %v, want nil", err)
	}
}

func TestCustomErrorWrapped(t *testing.T) {
	defer Reset()
	sentinel := errors.New("disk on fire")
	Enable(SiteSpillRead, Fault{Kind: KindError, Err: sentinel})
	err := Hit(SiteSpillRead)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrap of sentinel", err)
	}
}

func TestCountBudget(t *testing.T) {
	defer Reset()
	Enable(SiteArenaAlloc, Fault{Kind: KindError, Count: 2})
	var fired int
	for i := 0; i < 5; i++ {
		if Hit(SiteArenaAlloc) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
	if got := Hits(SiteArenaAlloc); got != 2 {
		t.Fatalf("Hits = %d, want 2", got)
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	defer Reset()
	Enable(SiteMorselWorker, Fault{Kind: KindError, Prob: 0.3, Seed: 42})
	var fired int
	const n = 2000
	for i := 0; i < n; i++ {
		if Hit(SiteMorselWorker) != nil {
			fired++
		}
	}
	if fired < n/5 || fired > n/2 {
		t.Fatalf("prob 0.3 fired %d/%d times, outside [%d,%d]", fired, n, n/5, n/2)
	}
}

func TestDelayKind(t *testing.T) {
	defer Reset()
	Enable(SiteSpillSync, Fault{Kind: KindDelay, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := Hit(SiteSpillSync); err != nil {
		t.Fatalf("delay Hit = %v, want nil", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay Hit returned after %v, want >= 20ms", d)
	}
}

func TestPanicKindAndAsInjected(t *testing.T) {
	defer Reset()
	Enable(SiteSpillWrite, Fault{Kind: KindPanic})
	var recovered error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if e, ok := AsInjected(r); ok {
					recovered = e
					return
				}
				panic(r)
			}
		}()
		_ = Hit(SiteSpillWrite)
		t.Fatal("KindPanic Hit returned")
	}()
	if recovered == nil || !errors.Is(recovered, ErrInjected) {
		t.Fatalf("recovered = %v, want injected error", recovered)
	}
	if e, ok := AsInjected(errors.New("not a panic value")); ok {
		t.Fatalf("AsInjected(non-panic-value) = %v, true", e)
	}
}

func TestDisableAndReset(t *testing.T) {
	Enable(SiteSpillWrite, Fault{Kind: KindError})
	Disable(SiteSpillWrite)
	if err := Hit(SiteSpillWrite); err != nil {
		t.Fatalf("disabled Hit = %v, want nil", err)
	}
	Enable(SiteSpillWrite, Fault{Kind: KindError})
	Enable(SiteSpillRead, Fault{Kind: KindError})
	Reset()
	if Hit(SiteSpillWrite) != nil || Hit(SiteSpillRead) != nil {
		t.Fatal("Hit after Reset fired")
	}
	if armed.Load() != 0 {
		t.Fatalf("armed = %d after Reset, want 0", armed.Load())
	}
}

func TestProbFromEnv(t *testing.T) {
	t.Setenv("HJ_FAULT_PROB", "")
	if got := ProbFromEnv(); got != 1 {
		t.Fatalf("unset HJ_FAULT_PROB = %v, want 1", got)
	}
	t.Setenv("HJ_FAULT_PROB", "0.35")
	if got := ProbFromEnv(); got != 0.35 {
		t.Fatalf("HJ_FAULT_PROB=0.35 parsed as %v", got)
	}
	t.Setenv("HJ_FAULT_PROB", "bogus")
	if got := ProbFromEnv(); got != 1 {
		t.Fatalf("invalid HJ_FAULT_PROB = %v, want 1", got)
	}
}

func TestCheckNoFiles(t *testing.T) {
	dir := t.TempDir()
	CheckNoFiles(t, dir)                   // empty: passes
	CheckNoFiles(t, dir+"/missing-subdir") // missing: passes
	if err := os.WriteFile(dir+"/orphan", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ft := &fakeTB{}
	CheckNoFiles(ft, dir)
	if !ft.failed {
		t.Fatal("CheckNoFiles passed on a dir with an orphan file")
	}
}

func TestCheckGoroutines(t *testing.T) {
	// Goroutines of the previous test may still be exiting, and a baseline
	// that counts one reads "baseline + 1 live" as "baseline" once it is
	// gone: take the baseline when two readings apart agree.
	base := Goroutines()
	for {
		time.Sleep(5 * time.Millisecond)
		n := Goroutines()
		if n == base {
			break
		}
		base = n
	}
	done := make(chan struct{})
	go func() { <-done }()
	ft := &fakeTB{}
	checkGoroutinesWithin(ft, base, 50*time.Millisecond)
	if !ft.failed {
		t.Fatal("CheckGoroutines passed with a live extra goroutine")
	}
	close(done)
	CheckGoroutines(t, base)
}

// checkGoroutinesWithin is CheckGoroutines with a short deadline so the
// failing case doesn't stall the test for the full grace period.
func checkGoroutinesWithin(t TB, baseline int, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for {
		if Goroutines() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

type fakeTB struct{ failed bool }

func (f *fakeTB) Helper()                           {}
func (f *fakeTB) Fatalf(format string, args ...any) { f.failed = true }
