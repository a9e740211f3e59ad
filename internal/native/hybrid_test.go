package native

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
	"hashjoin/internal/spill"
	"hashjoin/internal/workload"
)

// TestSubFanoutOverflowRegression pins the divide-form fan-out search
// against the integer overflow the multiplied form suffered: with a
// near-MaxInt budget, budget*sub wraps negative and the old comparison
// need > budget*sub held forever, inflating the sub-fan-out to its 256
// cap for a pair that two-way or four-way splitting already brings
// under budget.
func TestSubFanoutOverflowRegression(t *testing.T) {
	// ceil(MaxInt/2) is one over MaxInt/2, so a two-way split still
	// exceeds the budget and a four-way split fits: the answer is 4.
	// The overflowing comparison returned 256.
	if got := subFanoutFor(math.MaxInt, math.MaxInt/2, 32); got != 4 {
		t.Fatalf("subFanoutFor(MaxInt, MaxInt/2, 32) = %d, want 4", got)
	}
	// The bits-left cap still applies after the search.
	if got := subFanoutFor(math.MaxInt, 1, 3); got != 8 {
		t.Fatalf("subFanoutFor(MaxInt, 1, 3) = %d, want 8", got)
	}
	if got := subFanoutFor(1024, 512, 32); got != 2 {
		t.Fatalf("subFanoutFor(1024, 512, 32) = %d, want 2", got)
	}
	// overBudget is exact at the boundary: equality fits.
	if overBudget(math.MaxInt, math.MaxInt, 1) {
		t.Fatal("overBudget(MaxInt, MaxInt, 1) = true, want false")
	}
	if !overBudget(math.MaxInt, math.MaxInt/2, 2) {
		t.Fatal("overBudget(MaxInt, MaxInt/2, 2) = false, want true")
	}
}

// TestJoinPairBudgetDepthOnError pins the error path's depth reporting:
// when one subtree recurses deep and succeeds before a sibling gives up
// shallow, both the returned depth and the *BudgetError must carry the
// deepest level actually reached, not just the failing sub-call's. The
// workload: three entries whose codes differ only at bits 12-13 force a
// successful depth-6 descent in sub-bucket 0 (one-bit splits from shift
// 8 separate them at bit 12), while 257 copies of code 0xFFFFFFFF in
// sub-bucket 255 — processed after the success — exhaust all 32 hash
// bits in 8-bit splits and fail at depth 4.
func TestJoinPairBudgetDepthOnError(t *testing.T) {
	a := arena.New(1 << 20)
	codes := []uint32{0x0, 0x1000, 0x2000}
	for i := 0; i < 257; i++ {
		codes = append(codes, 0xFFFFFFFF)
	}
	es := mkEntries(t, a, codes)
	j := newPairJoiner()
	j.data = a.Data()
	j.width, j.t.width = 8, 8
	budget := pairFootprint(2, 8) // two entries fit, three do not
	cfg := Config{Scheme: Group, MemBudget: budget, NoSpill: true}.normalized()
	j.g, j.d = cfg.G, cfg.D

	depth, err := j.joinPairBudget(es, es, 0, cfg, 0)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T (%v), want *BudgetError", err, err)
	}
	if depth != 6 {
		t.Fatalf("returned depth = %d, want 6 (deepest successful subtree)", depth)
	}
	if be.Depth != 6 {
		t.Fatalf("BudgetError.Depth = %d, want 6 (deepest level reached)", be.Depth)
	}
}

// TestChunkPagesUsesConfiguredPageSize asserts the invariant satellite
// fix: the chunk budget arithmetic derives from the page size the
// Manager is actually configured with, not a hard-coded default, so a
// page-size override can never over-pin the budget.
func TestChunkPagesUsesConfiguredPageSize(t *testing.T) {
	perChunk := func(pageSize, width, budget int) int {
		perPage := pageSize + spill.PageCapacity(pageSize, width)*(entrySize+rowHdrSize+width+16)
		n := budget / perPage
		if n < 1 {
			n = 1
		}
		if n > spillChunkPagesCap {
			n = spillChunkPagesCap
		}
		return n
	}

	a := arena.New(16 << 20)
	sp := &spillState{
		a: a, dir: t.TempDir(), workers: 1,
		buildWidth: 8, probeWidth: 8,
		budget: 1 << 20, pageSize: 4096,
	}
	if got, want := sp.chunkPages(), perChunk(4096, 8, 1<<20); got != want {
		t.Fatalf("chunkPages with 4K pages = %d, want %d", got, want)
	}
	m, err := sp.manager()
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	if m.PageSize() != 4096 {
		t.Fatalf("Manager page size = %d, want the configured 4096", m.PageSize())
	}
	// The invariant: chunk arithmetic and Manager agree on the page size.
	if got, want := sp.chunkPages(), perChunk(m.PageSize(), sp.buildWidth, sp.budget); got != want {
		t.Fatalf("chunkPages = %d, want %d derived from Manager page size %d", got, want, m.PageSize())
	}
	if _, _, err := sp.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	// A zero SpillPageSize (no knob) resolves to the default.
	sp0 := &spillState{buildWidth: 8, budget: 1 << 20, pageSize: Config{}.spillPage()}
	if got, want := sp0.chunkPages(), perChunk(spill.DefaultPageSize, 8, 1<<20); got != want {
		t.Fatalf("chunkPages with default pages = %d, want %d", got, want)
	}
}

// hybridSpec is a Zipf build-side workload whose hottest ranks overflow
// the test budget while the cold tail stays resident, so every hybrid
// run crosses the resident/spilled boundary in both directions.
var hybridSpec = workload.Spec{
	NBuild: 4000, TupleSize: 32, ZipfS: 1.2, ZipfKeys: 64, Seed: 9,
}

const hybridBudget = 32 << 10

func hybridCfg(dir string) Config {
	return Config{
		Scheme: Group, Fanout: 8, Workers: 2,
		MemBudget: hybridBudget, SpillDir: dir,
	}
}

// hybridZipfPoints are the skew levels of the hybrid-vs-GRACE sweep,
// each with the budget that puts its hottest ranks over the resident
// line: sized in units of the per-row table footprint so the top rank
// needs roughly two budget-sized chunks — the regime where keeping one
// chunk resident and skipping one probe pass per spilled pair saves the
// largest I/O fraction. 16384 x 32768 rows of 64 B over 1024 Zipf keys,
// fanout 64, 4 KiB spill pages (small pages keep page rounding out of
// the comparison).
//
// grace is the spill I/O (bytes written + read) of the spill-everything
// ladder on the same input — recursive splitting, then each irreducible
// pair written and re-read in full — which the hybrid policy replaced.
// It is pinned, not re-measured: that ladder no longer exists. The
// values were read in August 2026 and again, unchanged, on the last
// commit that had it — at these budgets in rows, which a smaller row
// header leaves in place while it shrinks the bytes.
var hybridZipfPoints = []struct {
	zipf   float64
	budget int
	grace  int64
}{
	{0.5, 240 * rowFootprint(64), 57344},   // 240 rows resident per pair; top rank 256
	{1.0, 1500 * rowFootprint(64), 335872}, // 1500 rows resident; top rank ~2200
	{1.5, 4000 * rowFootprint(64), 966656}, // 4000 rows resident; top rank ~6500
}

// TestJoinHybridZipfParity runs each skew point through the hybrid
// policy and checks exact output parity against the unbudgeted
// reference, that pairs actually landed on both sides of the
// resident/spilled boundary, and the policy gate: the hybrid join's
// spill I/O never exceeds the spill-everything ladder's.
func TestJoinHybridZipfParity(t *testing.T) {
	for i, pt := range hybridZipfPoints {
		t.Run(fmt.Sprintf("zipf%.1f", pt.zipf), func(t *testing.T) {
			spec := workload.Spec{NBuild: 16384, NProbe: 32768, TupleSize: 64,
				ZipfS: pt.zipf, ZipfKeys: 1024, Seed: int64(40 + i)}
			a := arena.New(workload.ArenaBytesFor(spec) + 16<<20)
			pair := workload.Generate(a, spec)
			dir := t.TempDir()
			base := fault.Goroutines()
			mark := a.Used()

			jn := NewJoiner()
			ref, err := jn.Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 64})
			if err != nil {
				t.Fatalf("reference join: %v", err)
			}
			if ref.NOutput != pair.ExpectedMatches || ref.KeySum != pair.KeySum {
				t.Fatalf("reference join got (%d, %d), want (%d, %d)",
					ref.NOutput, ref.KeySum, pair.ExpectedMatches, pair.KeySum)
			}

			cfg := Config{Scheme: Group, Fanout: 64, Workers: 2,
				MemBudget: pt.budget, SpillDir: dir, SpillPageSize: 4096}
			a.Truncate(mark)
			hr, err := jn.Join(pair.Build, pair.Probe, cfg)
			if err != nil {
				t.Fatalf("hybrid join: %v", err)
			}
			if hr.NOutput != ref.NOutput || hr.KeySum != ref.KeySum {
				t.Fatalf("hybrid join got (%d, %d), want (%d, %d)",
					hr.NOutput, hr.KeySum, ref.NOutput, ref.KeySum)
			}
			if hr.ResidentPartitions == 0 || hr.VictimPartitions == 0 {
				t.Fatalf("hybrid pairs resident=%d spilled=%d; want both sides of the boundary",
					hr.ResidentPartitions, hr.VictimPartitions)
			}
			if hr.SpilledPartitions == 0 {
				t.Fatal("hybrid run never reached the disk tier")
			}
			hio := hr.SpillBytesWritten + hr.SpillBytesRead
			gio := pt.grace
			if hio == 0 || hio > gio {
				t.Fatalf("hybrid spill I/O %d, spill-everything %d; want 0 < hybrid <= spill-everything", hio, gio)
			}
			// The mid-skew point is where the policy exists to pay.
			if pt.zipf == 1.0 && 4*hio > 3*gio {
				t.Fatalf("zipf 1.0: hybrid I/O %d is not >= 25%% below spill-everything %d", hio, gio)
			}
			t.Logf("spill I/O: spill-everything %d B, hybrid %d B (resident %d, spilled %d pairs)",
				gio, hio, hr.ResidentPartitions, hr.VictimPartitions)
			fault.CheckGoroutines(t, base)
			fault.CheckNoFiles(t, dir)
		})
	}
}

// TestJoinHybridDemotion shrinks the advisory budget after the first
// pair claim — the multi-tenant pressure signal — and checks that
// planned-resident pairs are demoted to the out-of-core path without
// restarting the join: exact parity, demotions accounted, no leaks.
func TestJoinHybridDemotion(t *testing.T) {
	a := arena.New(workload.ArenaBytesFor(hybridSpec) + 4<<20)
	pair := workload.Generate(a, hybridSpec)
	dir := t.TempDir()
	base := fault.Goroutines()

	var claims atomic.Int64
	cfg := hybridCfg(dir)
	cfg.Workers = 1 // deterministic claim order: one pair per sample
	cfg.BudgetNow = func() int {
		if claims.Add(1) == 1 {
			return hybridBudget
		}
		return pairFootprint(4, 32) // a handful of entries: everything demotes
	}
	r, err := Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("hybrid join under pressure: %v", err)
	}
	if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
		t.Fatalf("demoted join got (%d, %d), want (%d, %d)",
			r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	if r.DemotedPartitions == 0 || r.BytesDemoted == 0 {
		t.Fatalf("no demotions recorded (demoted=%d bytes=%d) despite the shrunken budget",
			r.DemotedPartitions, r.BytesDemoted)
	}
	if r.SpilledPartitions == 0 {
		t.Fatal("demoted pairs never reached the disk tier")
	}
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dir)
}

// TestJoinHybridDemotionFault injects a spill-write fault into a
// demotion mid-join: the demoted pair's first page write fails, and the
// join must surface exactly one typed error with no partial output, no
// leaked goroutines, and an empty spill directory — then work again.
func TestJoinHybridDemotionFault(t *testing.T) {
	defer fault.Reset()
	a := arena.New(workload.ArenaBytesFor(hybridSpec) + 4<<20)
	pair := workload.Generate(a, hybridSpec)
	dir := t.TempDir()
	base := fault.Goroutines()
	mark := a.Used()

	var claims atomic.Int64
	cfg := hybridCfg(dir)
	cfg.Workers = 1
	cfg.BudgetNow = func() int {
		if claims.Add(1) == 1 {
			return hybridBudget
		}
		return pairFootprint(4, 32)
	}
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError})
	jn := NewJoiner()
	r, err := jn.Join(pair.Build, pair.Probe, cfg)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v, want injected-fault class", err)
	}
	if r.NOutput != 0 || r.KeySum != 0 {
		t.Fatalf("failed join leaked partial output (%d, %d)", r.NOutput, r.KeySum)
	}
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dir)

	fault.Reset()
	a.Truncate(mark)
	claims.Store(0)
	r2, err := jn.Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("join after injected fault: %v", err)
	}
	if r2.NOutput != pair.ExpectedMatches || r2.KeySum != pair.KeySum {
		t.Fatalf("post-fault join got (%d, %d), want (%d, %d)",
			r2.NOutput, r2.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	fault.CheckNoFiles(t, dir)
}
