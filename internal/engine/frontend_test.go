package engine

import (
	"testing"

	"hashjoin/internal/core"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// TestScratchBytesGolden pins the one scratch estimator to the numbers
// of the two it replaced (parent), adjusted by exactly the terms that
// have moved since. The pipe ring is gone, so every estimate is its
// parent minus the 2·workers+4 one-group pipe buffers — G rows of the
// join's emit width each — that the old estimators planned. Spilled
// pairs now run on every worker, so a budgeted native estimate adds,
// for each worker past the first, one more chunk of pinned pages and
// the four pages its writes and reads hold. And a non-scan build child
// is materialized into 8 KiB pages, so a filtered build adds the pages
// a relation of buildRows build tuples takes (8-byte page header, 8-byte
// slot per tuple). A simulator estimate adds the structures the
// simulator allocates in the arena, which none of the old estimators
// counted: the join's chained table and, under an aggregate, the group
// table (the join output it materializes is joinRows rows, 0 here; the
// CLI's Sim rows of TestScratchBytesBoundsRun run inside the estimate
// with the workload's own). Nothing else moved — the expectation below is
// computed exactly that way. Every parent but the last two was printed
// by the two old estimators — the root package's plannedScratch (rows
// "service …", the inputs of TestServicePlannedScratchBoundsRun; the
// bench/ workloads' configurations; 8 matches per probe) and
// cli.Pipeline.scratchBytes (rows "cli …", the inputs of
// TestScratchBytesBoundsRun; the workload's 8 matches per build) — so a
// change to any of them is a change to what the service admits and the
// CLI allocates. The next-to-last row was the one intended difference
// of the merged estimator: the old ones sized the spill pool in default
// 32 KiB pages whatever the configured page size, and returned 718592
// there too. The last row is TestServiceBuildFilterFitsWindow's query, whose
// parent is the old formula's (no old estimator had a filter term).
func TestScratchBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tuple     int
		jt        plan.JoinType
		valueOff  int // 0: no aggregate
		cfg       Config
		mpp       int
		buildRows int
		parent    uint64 // the old estimators' figure
		emit      uint64 // JoinEmitWidth
		filtered  bool   // the build child is a filter
	}{
		{"service inner", 1500, plan.Inner, 0, Config{Backend: Native, Workers: 2}, 8, 400, 1217536, 3000, false},
		{"service semi", 1500, plan.LeftSemi, 0, Config{Backend: Native, Workers: 2}, 8, 400, 641536, 1500, false},
		{"service agg", 16, plan.Inner, 4, Config{Backend: Native, Workers: 2}, 8, 12000, 356608, 8, false},
		{"service wide agg", 1500, plan.Inner, 1496, Config{Backend: Native, Workers: 2}, 8, 400, 78208, 8, false},
		{"inmem_probe", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4}, 8, 200000, 161536, 200, false},
		{"inmem_build", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4}, 8, 400000, 161536, 200, false},
		{"part_agg", 100, plan.Inner, 4, Config{Backend: Native, Workers: 4}, 8, 100000, 2469376, 8, false},
		{"spill_skew", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4, MemBudget: 128 << 10}, 8, 100000, 718592, 200, false},
		{"spill_skew, no spill", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4, MemBudget: 128 << 10, NoSpill: true}, 8, 100000, 161536, 200, false},
		{"spill_skew, 5 spill workers, G=64", 100, plan.Inner, 0,
			Config{Backend: Native, Workers: 4, MemBudget: 128 << 10, SpillWorkers: 5, Params: core.Params{G: 64}}, 8, 100000, 1173504, 200, false},
		{"spill_skew, chunk cap", 100, plan.Inner, 0, Config{Backend: Native, Workers: 4, MemBudget: 64 << 20}, 8, 100000, 8943360, 200, false},
		{"serve_mix default", 40, plan.Inner, 0, Config{Backend: Native, Workers: 2}, 8, 20000, 96256, 80, false},
		{"serve_mix typed", 40, plan.LeftSemi, 0, Config{Backend: Native, Workers: 2}, 8, 20000, 80896, 40, false},
		{"serve_mix agg", 40, plan.Inner, 4, Config{Backend: Native, Workers: 2}, 8, 20000, 548608, 8, false},
		{"cli inner", 1000, plan.Inner, 4, Config{Backend: Native, Workers: 2}, 8, 300, 75808, 8, false},
		{"cli semi", 1000, plan.LeftSemi, 4, Config{Backend: Native, Workers: 2}, 8, 300, 75808, 8, false},
		{"cli sim, budget ignored", 1000, plan.Inner, 4, Config{Backend: Sim, Workers: 2, MemBudget: 4096}, 8, 300, 840736, 2000, false},
		{"cli native, budget", 1000, plan.Inner, 4, Config{Backend: Native, Workers: 2, MemBudget: 4096}, 8, 300, 501792, 8, false},

		{"spill_skew, 63 KiB pages", 100, plan.Inner, 0,
			Config{Backend: Native, Workers: 4, MemBudget: 128 << 10, SpillPageSize: 63 << 10}, 8, 100000, 1065728, 200, false},
		{"service filtered build", 100, plan.Inner, 0, Config{Backend: Native, Workers: 2}, 8, 20000, 142336, 200, true},
	} {
		shape := &storage.Relation{Schema: storage.KeyPayloadSchema(tc.tuple)}
		build := Scan(shape)
		if tc.filtered {
			build = Filter(build, KeyBetween(0, ^uint32(0)))
		}
		logical := HashJoinTyped(build, Scan(shape), tc.jt)
		if tc.valueOff != 0 {
			logical = HashAggregate(logical, tc.valueOff, tc.buildRows)
		}
		g := uint64(max(tc.cfg.Params.G, native.DefaultG))
		want := tc.parent - uint64(2*tc.cfg.Workers+4)*g*tc.emit
		if c := tc.cfg; c.Backend == Native && c.MemBudget > 0 && !c.NoSpill {
			page := c.SpillPageSize
			if page == 0 {
				page = 32 << 10
			}
			chunk := min(c.MemBudget/page+1, 256)
			want += uint64((c.Workers - 1) * (chunk + 4) * page)
		}
		if tc.filtered {
			perPage := (8<<10 - 8) / (tc.tuple + 8)
			want += uint64((tc.buildRows + perPage - 1) / perPage * (8 << 10))
		}
		if tc.cfg.Backend == Sim {
			want += core.ProbeScratchBytes(tc.buildRows)
			if tc.valueOff != 0 {
				want += core.AggScratchBytes(tc.buildRows, 0)
			}
		}
		if got := logical.ScratchBytes(tc.cfg, tc.mpp, tc.buildRows, 0); got != want {
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
