package engine

import (
	"testing"

	"hashjoin/internal/core"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// TestScratchBytesGolden pins the one scratch estimator to the numbers
// of the two it replaced, plus the two terms that have moved since. A
// pipe buffer now holds ten prefetch groups, not one, so every estimate
// is its old value (parent) plus nine more groups of G rows of the
// join's emit width in each of the 2·workers+4 buffers. And spilled
// pairs now run on every worker, so a budgeted native estimate adds, for
// each worker past the first, one more chunk of pinned pages and the
// four pages its writes and reads hold. Nothing else moved — the
// expectation below is computed exactly that way. Every parent but
// the last was printed by the PR 13 estimators — the root package's
// plannedScratch (rows "service …", the inputs of
// TestServicePlannedScratchBoundsRun; the bench/ workloads'
// configurations; 8 matches per probe) and
// cli.Pipeline.scratchBytes (rows "cli …", the inputs of
// TestScratchBytesBoundsRun; the workload's 8 matches per build) — so a
// change to any of them is a change to what the service admits and the
// CLI allocates. The last row was PR 14's one intended difference: the
// old estimators sized the spill pool in default 32 KiB pages whatever
// the configured page size, and returned 718592 there too.
func TestScratchBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tuple    int
		jt       plan.JoinType
		valueOff int // 0: no aggregate
		cfg      Config
		mpp      int
		aggRows  int
		parent   uint64 // the estimate before the ring grew
		emit     uint64 // JoinEmitWidth
	}{
		{"service inner", 1500, plan.Inner, 0, Config{Backend: Native, Workers: 2}, 8, 400, 1217536, 3000},
		{"service semi", 1500, plan.LeftSemi, 0, Config{Backend: Native, Workers: 2}, 8, 400, 641536, 1500},
		{"service agg", 16, plan.Inner, 4, Config{Backend: Native, Workers: 2}, 8, 12000, 356608, 8},
		{"service wide agg", 1500, plan.Inner, 1496, Config{Backend: Native, Workers: 2}, 8, 400, 78208, 8},
		{"inmem_probe", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4}, 8, 200000, 161536, 200},
		{"inmem_build", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4}, 8, 400000, 161536, 200},
		{"part_agg", 100, plan.Inner, 4, Config{Backend: Native, Workers: 4}, 8, 100000, 2469376, 8},
		{"spill_skew", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4, MemBudget: 128 << 10}, 8, 100000, 718592, 200},
		{"spill_skew, no spill", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4, MemBudget: 128 << 10, NoSpill: true}, 8, 100000, 161536, 200},
		{"spill_skew, 5 spill workers, G=64", 100, plan.Inner, 0,
			Config{Backend: Native, Workers: 4, MemBudget: 128 << 10, SpillWorkers: 5, Params: core.Params{G: 64}}, 8, 100000, 1173504, 200},
		{"spill_skew, chunk cap", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4, MemBudget: 64 << 20}, 8, 100000, 8943360, 200},
		{"serve_mix default", 40, plan.Inner, 0, Config{Backend: Native, Workers: 2}, 8, 20000, 96256, 80},
		{"serve_mix typed", 40, plan.LeftSemi, 0, Config{Backend: Native, Workers: 2}, 8, 20000, 80896, 40},
		{"serve_mix agg", 40, plan.Inner, 4, Config{Backend: Native, Workers: 2}, 8, 20000, 548608, 8},
		{"cli inner", 1000, plan.Inner, 4, Config{Backend: Native, Workers: 2}, 8, 300, 75808, 8},
		{"cli semi", 1000, plan.LeftSemi, 4, Config{Backend: Native, Workers: 2}, 8, 300, 75808, 8},
		{"cli inner nested-loop", 1000, plan.Inner, 4, Config{Backend: Native, Workers: 2, Strategy: plan.NestedLoop}, 8, 300, 840736, 2000},
		{"cli semi nested-loop", 1000, plan.LeftSemi, 4, Config{Backend: Native, Workers: 2, Strategy: plan.NestedLoop}, 8, 300, 456736, 1000},
		{"cli sim, budget ignored", 1000, plan.Inner, 4, Config{Backend: Sim, Workers: 2, MemBudget: 4096}, 8, 300, 840736, 2000},
		{"cli native, budget", 1000, plan.Inner, 4, Config{Backend: Native, Workers: 2, MemBudget: 4096}, 8, 300, 501792, 8},

		{"spill_skew, 63 KiB pages", 100, plan.Inner, 0,
			Config{Backend: Native, Workers: 4, MemBudget: 128 << 10, SpillPageSize: 63 << 10}, 8, 100000, 1065728, 200},
	} {
		shape := &storage.Relation{Schema: storage.KeyPayloadSchema(tc.tuple)}
		logical := HashJoinTyped(Scan(shape), Scan(shape), tc.jt)
		if tc.valueOff != 0 {
			logical = HashAggregate(logical, tc.valueOff, tc.aggRows)
		}
		g := uint64(max(tc.cfg.Params.G, native.DefaultG))
		want := tc.parent + uint64(2*tc.cfg.Workers+4)*9*g*tc.emit
		if c := tc.cfg; c.Backend == Native && c.MemBudget > 0 && !c.NoSpill {
			page := c.SpillPageSize
			if page == 0 {
				page = 32 << 10
			}
			chunk := min(c.MemBudget/page+1, 256)
			want += uint64((c.Workers - 1) * (chunk + 4) * page)
		}
		if got := logical.ScratchBytes(tc.cfg, tc.mpp, tc.aggRows); got != want {
			t.Errorf("%s: ScratchBytes = %d, want %d", tc.name, got, want)
		}
	}
}

// TestNativeScheme pins the one core.Scheme -> native.Scheme mapping:
// the schemes with no native analog run — and are reported — as Baseline.
func TestNativeScheme(t *testing.T) {
	for in, want := range map[core.Scheme]native.Scheme{
		core.SchemeBaseline:  native.Baseline,
		core.SchemeSimple:    native.Baseline, // no native analog of page prefetch
		core.SchemeGroup:     native.Group,
		core.SchemePipelined: native.Pipelined,
		core.SchemeCombined:  native.Baseline, // partition-phase only
	} {
		if got := NativeScheme(in); got != want {
			t.Errorf("NativeScheme(%v) = %v, want %v", in, got, want)
		}
	}
}
