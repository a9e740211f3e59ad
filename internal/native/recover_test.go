package native

// Recovery parity proofs for the self-healing spill tier: a join that
// loses a spill directory mid-write, or finds a spill page corrupted on
// read, must recover transparently — same NOutput and KeySum as the
// fault-free run, recovery counters ticking, nothing left behind. Only
// when every configured directory is down does the join shed, with one
// typed retryable error.

import (
	"errors"
	"syscall"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
	"hashjoin/internal/spill"
	"hashjoin/internal/workload"
)

// TestSpillDirFailoverParity: an EIO on the first spill write indicts
// spill dir A; the partition is quarantined and rebuilt into dir B and
// the join's output is bit-identical to the fault-free answer.
func TestSpillDirFailoverParity(t *testing.T) {
	defer fault.Reset()
	t.Cleanup(spill.ResetHealth)
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dirA, dirB := t.TempDir(), t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError, Err: syscall.EIO, Count: 1})
	cfg := spillCfg(dirA + "," + dirB)
	r, err := Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("failover join failed: %v", err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("failover join got (%d, %d), want fault-free (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if r.SpillFailovers == 0 {
		t.Fatal("join recovered but reports no directory failovers")
	}
	if r.SpillRebuilds == 0 {
		t.Fatal("join recovered but reports no partition rebuilds")
	}
	h := spill.Health(dirA + "," + dirB)
	if h[0].Healthy || !h[1].Healthy {
		t.Fatalf("health after failover = %+v, want [unhealthy healthy]", h)
	}
	assertClean(t, base, dirA)
	fault.CheckNoFiles(t, dirB)
}

// TestSpillCorruptPageRebuildParity: a page that fails checksum
// verification on read quarantines its file and rebuilds the partition
// from the in-memory source — output still bit-identical, exactly one
// rebuild, and the directory is NOT indicted (corruption is per-file).
func TestSpillCorruptPageRebuildParity(t *testing.T) {
	defer fault.Reset()
	t.Cleanup(spill.ResetHealth)
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillVerify, fault.Fault{Kind: fault.KindError, Count: 1})
	r, err := Join(pair.Build, pair.Probe, spillCfg(dir))
	if err != nil {
		t.Fatalf("corrupt-page join failed: %v", err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("corrupt-page join got (%d, %d), want fault-free (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if r.SpillRebuilds == 0 {
		t.Fatal("join recovered from corruption but reports no rebuilds")
	}
	if h := spill.Health(dir); !h[0].Healthy {
		t.Fatalf("corruption indicted the directory: %+v", h[0])
	}
	assertClean(t, base, dir)
}

// TestSpillCorruptPageSecondStrikeTyped: each partition gets ONE
// rebuild; unbounded corruption (the fault refires during the rebuilt
// read) must surface as one typed *CorruptPageError, not a loop.
func TestSpillCorruptPageSecondStrikeTyped(t *testing.T) {
	defer fault.Reset()
	t.Cleanup(spill.ResetHealth)
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillVerify, fault.Fault{Kind: fault.KindError})
	_, err := Join(pair.Build, pair.Probe, spillCfg(dir))
	var cpe *spill.CorruptPageError
	if !errors.As(err, &cpe) {
		t.Fatalf("error %T (%v), want *CorruptPageError after rebuild budget", err, err)
	}
	assertClean(t, base, dir)
}

// TestSpillUnavailableAllDirsDown: with every configured directory
// unusable, the irreducible workload degrades up the ladder and finally
// sheds with the typed, retryable spill-unavailable error.
func TestSpillUnavailableAllDirsDown(t *testing.T) {
	t.Cleanup(spill.ResetHealth)
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	base := fault.Goroutines()

	cfg := spillCfg("/nonexistent/hjspill-a,/nonexistent/hjspill-b")
	_, err := Join(pair.Build, pair.Probe, cfg)
	if !errors.Is(err, spill.ErrSpillUnavailable) {
		t.Fatalf("error %v, want ErrSpillUnavailable", err)
	}
	var sue *spill.SpillUnavailableError
	if !errors.As(err, &sue) || len(sue.Dirs) != 2 {
		t.Fatalf("error %T (%v), want *SpillUnavailableError with both dirs", err, err)
	}
	fault.CheckGoroutines(t, base)
}

// TestSpillDirFailoverExhaustionTyped: EIO on every write burns through
// both configured directories; the join sheds with the typed
// spill-unavailable error rather than an EIO soup, and the health
// registry shows both dirs down.
func TestSpillDirFailoverExhaustionTyped(t *testing.T) {
	defer fault.Reset()
	t.Cleanup(spill.ResetHealth)
	a := arena.New(workload.ArenaBytesFor(spillSpec) + 1<<20)
	pair := workload.Generate(a, spillSpec)
	dirA, dirB := t.TempDir(), t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError, Err: syscall.EIO})
	spec := dirA + "," + dirB
	_, err := Join(pair.Build, pair.Probe, spillCfg(spec))
	if !errors.Is(err, spill.ErrSpillUnavailable) {
		t.Fatalf("error %v, want ErrSpillUnavailable after exhausting dirs", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("shed error lost the underlying errno: %v", err)
	}
	for i, h := range spill.Health(spec) {
		if h.Healthy {
			t.Fatalf("dir %d still healthy after exhaustion: %+v", i, h)
		}
	}
	assertClean(t, base, dirA)
	fault.CheckNoFiles(t, dirB)
}

// TestSpillFailoverUnderHybrid: a join whose pairs straddle the
// resident line — resident pairs, and Zipf victims split into spilled
// hot codes and a cold remainder — shares the same recovery machinery:
// parity under a write-time directory failure.
func TestSpillFailoverUnderHybrid(t *testing.T) {
	defer fault.Reset()
	t.Cleanup(spill.ResetHealth)
	a := arena.New(workload.ArenaBytesFor(hybridSpec) + 4<<20)
	pair := workload.Generate(a, hybridSpec)
	dirA, dirB := t.TempDir(), t.TempDir()
	base := fault.Goroutines()

	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError, Err: syscall.EIO, Count: 1})
	r, err := Join(pair.Build, pair.Probe, hybridCfg(dirA+","+dirB))
	if err != nil {
		t.Fatalf("hybrid failover join failed: %v", err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("hybrid failover got (%d, %d), want (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if r.SpillFailovers == 0 || r.SpillRebuilds == 0 {
		t.Fatalf("hybrid failover counters = (%d, %d), want both > 0",
			r.SpillFailovers, r.SpillRebuilds)
	}
	if r.ResidentPartitions == 0 || r.VictimPartitions == 0 {
		t.Fatalf("hybrid pairs resident=%d victims=%d; want both sides of the boundary",
			r.ResidentPartitions, r.VictimPartitions)
	}
	assertClean(t, base, dirA)
	fault.CheckNoFiles(t, dirB)
}
