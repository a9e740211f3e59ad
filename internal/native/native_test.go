package native

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// expected computes a workload's ground truth for direct comparison.
func run(t *testing.T, spec workload.Spec, cfg Config) (Result, *workload.Pair) {
	t.Helper()
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	r, err := Join(pair.Build, pair.Probe, cfg)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return r, pair
}

func TestJoinAllSchemes(t *testing.T) {
	spec := workload.Spec{NBuild: 5000, TupleSize: 36, MatchesPerBuild: 2, PctMatched: 90, Seed: 3}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		for _, fanout := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/fanout%d", scheme, fanout), func(t *testing.T) {
				r, pair := run(t, spec, Config{Scheme: scheme, Fanout: fanout, Workers: 2})
				if r.NOutput != pair.ExpectedMatches {
					t.Fatalf("NOutput = %d, want %d", r.NOutput, pair.ExpectedMatches)
				}
				if r.KeySum != pair.KeySum {
					t.Fatalf("KeySum = %d, want %d", r.KeySum, pair.KeySum)
				}
			})
		}
	}
}

func TestJoinSkewed(t *testing.T) {
	// Repeated build keys grow bucket chains, exercising the overflow
	// slab on every scheme.
	spec := workload.Spec{NBuild: 4000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 9, Skew: 16}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		t.Run(scheme.String(), func(t *testing.T) {
			r, pair := run(t, spec, Config{Scheme: scheme})
			if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
				t.Fatalf("got (%d, %d), want (%d, %d)",
					r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
			}
		})
	}
}

func TestJoinTinyAndEmpty(t *testing.T) {
	// Degenerate sizes stress the pipelined prologue/epilogue (inputs
	// shorter than 3D) and empty-partition skipping.
	for _, n := range []int{0, 1, 2, 3, 7} {
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			t.Run(fmt.Sprintf("n%d/%v", n, scheme), func(t *testing.T) {
				spec := workload.Spec{NBuild: n, NProbe: max(2*n, 1), TupleSize: 16, MatchesPerBuild: 2, Seed: 1}
				if n == 0 {
					// workload.Generate requires NBuild >= 1; make an
					// empty build relation by hand instead.
					a := arena.New(4 << 20)
					p := workload.Generate(a, workload.Spec{NBuild: 1, NProbe: 2, TupleSize: 16, Seed: 1})
					empty := storage.NewRelation(a, p.Build.Schema, p.Build.PageSize)
					r, err := Join(empty, p.Probe, Config{Scheme: scheme})
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					if r.NOutput != 0 || r.KeySum != 0 {
						t.Fatalf("empty build produced output: %+v", r)
					}
					return
				}
				r, pair := run(t, spec, Config{Scheme: scheme, G: 5, D: 3})
				if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
					t.Fatalf("got (%d, %d), want (%d, %d)",
						r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
				}
			})
		}
	}
}

func TestMorselWorkersDeterministic(t *testing.T) {
	// The same workload must produce identical results at every worker
	// count: claim order is nondeterministic, the sums are not.
	spec := workload.Spec{NBuild: 20000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 80, Seed: 5}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	for _, workers := range []int{1, 2, 4, 16} {
		r, err := Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 32, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if r.NOutput != pair.ExpectedMatches || r.KeySum != pair.KeySum {
			t.Fatalf("workers=%d: got (%d, %d), want (%d, %d)",
				workers, r.NOutput, r.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
	}
}

// serialSplit is the partition phase's reference: entries in storage
// order, each appended to the partition its code bits above shift
// select — what one pass over the input in order produces.
func serialSplit(entries []Entry, shift uint, fanout int) [][]Entry {
	parts := make([][]Entry, fanout)
	for _, e := range entries {
		d := e.Code >> shift & uint32(fanout-1)
		parts[d] = append(parts[d], e)
	}
	return parts
}

// requireSplit fails unless p holds want's partitions, entry for entry
// and in order.
func requireSplit(t *testing.T, name string, p *partitions, want [][]Entry) {
	t.Helper()
	if p.fanout() != len(want) {
		t.Fatalf("%s: %d partitions, want %d", name, p.fanout(), len(want))
	}
	for d := range want {
		if got := p.part(d); !slices.Equal(got, want[d]) {
			t.Fatalf("%s: partition %d holds %d entries that differ from the serial fill's %d", name, d, len(got), len(want[d]))
		}
	}
}

// partitionRels returns relations of 8-byte tuples on 16 KiB pages, one
// per page count, each ending in a page of one tuple.
func partitionRels(t *testing.T, a *arena.Arena, pageCounts ...int) map[int]*storage.Relation {
	const width, pageSize = 8, 16 << 10
	rng := rand.New(rand.NewSource(2))
	rels := make(map[int]*storage.Relation, len(pageCounts))
	for _, np := range pageCounts {
		var keys []uint32
		if np > 0 {
			keys = make([]uint32, (np-1)*storage.CapacityFor(pageSize, width)+1)
		}
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		rels[np] = keysRelation(a, keys, width, pageSize)
		if rels[np].NPages() != np {
			t.Fatalf("%d pages, the case wants %d", rels[np].NPages(), np)
		}
	}
	return rels
}

// TestPartitionPreservesEntries: the partition phase leaves every
// partition of both relations holding the serial fill's entries, in
// order, for every worker count and fan-out — over relations of no
// pages, one, fewer than the workers, a count the workers do not divide,
// and 162, each paired both ways with the 162-page one, which alone
// puts the pair above the floor. One Joiner runs every case, so
// recycled buffers must not show through.
func TestPartitionPreservesEntries(t *testing.T) {
	a := arena.New(8 << 20)
	pageCounts := []int{0, 1, 3, 7, 162}
	rels := partitionRels(t, a, pageCounts...)
	big := rels[162]
	if big.NTuples < 2*minPartMorsel {
		t.Fatalf("%d tuples stay below the partition floor", big.NTuples)
	}
	flat := make(map[*storage.Relation][]Entry)
	for _, rel := range rels {
		flat[rel] = Flatten(rel, nil)
	}
	// The cut alone, at range counts the floor never picks for the small
	// relations: at most that many ranges, the pages in order across
	// them, and the kernel over them the serial fill.
	for np, rel := range rels {
		for _, n := range []int{1, 2, 4} {
			var p partitions
			p.cut(rel, 64, n)
			var pages []arena.Addr
			for _, r := range p.ranges {
				pages = append(pages, r.pages...)
			}
			if len(p.ranges) > n || !slices.Equal(pages, rel.Pages) {
				t.Fatalf("%d pages cut %d ways: %d ranges, pages in order %v", np, n, len(p.ranges), slices.Equal(pages, rel.Pages))
			}
			p.run()
			requireSplit(t, fmt.Sprintf("%d pages cut %d ways", np, n), &p, serialSplit(flat[rel], 0, 64))
		}
	}
	jn := NewJoiner()
	for _, workers := range []int{1, 2, 4} {
		for _, fanout := range []int{1, 2, 64, 4096} {
			for _, np := range pageCounts {
				for _, pair := range [][2]*storage.Relation{{rels[np], big}, {big, rels[np]}} {
					if err := jn.partition(pair[0], pair[1], fanout, Config{Workers: workers}.normalized()); err != nil {
						t.Fatalf("workers=%d fanout=%d pages=%d: %v", workers, fanout, np, err)
					}
					for k, p := range []*partitions{&jn.bp, &jn.pp} {
						name := fmt.Sprintf("workers=%d fanout=%d %d-page pair, side %d", workers, fanout, np, k)
						requireSplit(t, name, p, serialSplit(flat[pair[k]], 0, fanout))
					}
				}
			}
		}
	}
}

// TestPartitionBelowFloorIsSerial: one worker, or a pair with fewer
// than two morsels' worth of tuples, partitions on the calling goroutine
// — the pool sees the join's own job alone — while a pair at the floor
// adds exactly two jobs, counting and scattering, each covering both
// relations. Every run's result is the one-worker run's.
func TestPartitionBelowFloorIsSerial(t *testing.T) {
	a := arena.New(8 << 20)
	keys := make([]uint32, 2*minPartMorsel)
	for i := range keys {
		keys[i] = uint32(i % 50_000)
	}
	rel := func(n int) *storage.Relation { return keysRelation(a, keys[:n], 8, 16<<10) }
	below, at, probe := rel(minPartMorsel), rel(minPartMorsel+1), rel(minPartMorsel-1)
	for _, tc := range []struct {
		name    string
		build   *storage.Relation
		workers int
		jobs    int // the join's own job included
	}{
		{"one worker", at, 1, 1},
		{"below the floor", below, 4, 1},
		{"empty build", rel(0), 4, 1},
		{"at the floor", at, 4, 3},
		{"at the floor, two workers", at, 2, 3},
	} {
		want, err := Join(tc.build, probe, Config{Fanout: 16, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pool := &countingPool{}
		got, err := Join(tc.build, probe, Config{Fanout: 16, Workers: tc.workers, Pool: pool})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pool.jobs != tc.jobs {
			t.Errorf("%s: %d pool jobs, want %d", tc.name, pool.jobs, tc.jobs)
		}
		if got.NOutput != want.NOutput || got.KeySum != want.KeySum {
			t.Errorf("%s: (%d, %d), one worker (%d, %d)", tc.name, got.NOutput, got.KeySum, want.NOutput, want.KeySum)
		}
	}
}

func TestBudgetRecursionParity(t *testing.T) {
	// A budget far below the workload's footprint at a forced small
	// fan-out must trigger recursive re-partitioning, and the result must
	// be byte-identical to the unbudgeted run. The pair is above the
	// partition floor, so four workers partition it in parallel first.
	spec := workload.Spec{NBuild: 50000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 90, Seed: 7}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	if n := pair.Build.NTuples + pair.Probe.NTuples; n < 2*minPartMorsel {
		t.Fatalf("%d tuples stay below the partition floor", n)
	}

	// Re-partitioning one pair is the partition kernel over one range of
	// entries: at any shift it must keep each sub-partition in input
	// order, as the serial fill does.
	entries := Flatten(pair.Build, nil)
	for _, shift := range []uint{0, 3, 24, 31} {
		for _, sub := range []int{2, 8, 256} {
			var p partitions
			p.split(entries, shift, sub)
			requireSplit(t, fmt.Sprintf("split at shift %d into %d", shift, sub), &p, serialSplit(entries, shift, sub))
		}
	}

	want, err := Join(pair.Build, pair.Probe, Config{Scheme: Group, Fanout: 1})
	if err != nil {
		t.Fatalf("unbudgeted Join: %v", err)
	}
	if want.RecursionDepth != 0 {
		t.Fatalf("unbudgeted join recursed to depth %d", want.RecursionDepth)
	}

	// footprint(50000) ≈ 3.6 MB; a 256 KB budget forces ~3 levels of
	// splitting at sub-fanout 2..8 per level.
	for _, workers := range []int{1, 4} {
		got, err := Join(pair.Build, pair.Probe,
			Config{Scheme: Group, Fanout: 1, MemBudget: 256 << 10, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: budgeted Join: %v", workers, err)
		}
		if got.RecursionDepth < 1 {
			t.Fatalf("workers=%d: budget %d did not recurse (depth %d)", workers, 256<<10, got.RecursionDepth)
		}
		if got.NOutput != want.NOutput || got.KeySum != want.KeySum {
			t.Fatalf("workers=%d: budgeted join got (%d, %d), want (%d, %d)",
				workers, got.NOutput, got.KeySum, want.NOutput, want.KeySum)
		}
	}
}

func TestBudgetInfeasibleReturnsError(t *testing.T) {
	// Maximum skew: every build tuple shares one key, hence one hash
	// code. No radix split separates identical codes, so with the spill
	// tier disabled an undersized budget must surface a *BudgetError —
	// not a panic, not a hang. (With spilling enabled the same join
	// completes out of core; see spill_test.go.)
	spec := workload.Spec{NBuild: 5000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 11, Skew: 5000}
	a := arena.New(workload.ArenaBytesFor(spec))
	pair := workload.Generate(a, spec)
	before := runtime.NumGoroutine()
	_, err := Join(pair.Build, pair.Probe,
		Config{Scheme: Group, Fanout: 4, MemBudget: 4 << 10, Workers: 4, NoSpill: true})
	if err == nil {
		t.Fatalf("infeasible budget did not fail")
	}
	if _, ok := err.(*BudgetError); !ok {
		t.Fatalf("error %T (%v), want *BudgetError", err, err)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count settles back to at most
// base: a failed join must not leak morsel workers. The retry loop
// absorbs runtime-internal goroutines winding down.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
