package native

import (
	"context"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// TestFlattenPagesCoversRelation: page ranges flattened one after
// another are the whole relation's entries in storage order, and a dst
// with room is reused, not regrown.
func TestFlattenPagesCoversRelation(t *testing.T) {
	spec := workload.Spec{NBuild: 5000, TupleSize: 24, MatchesPerBuild: 1, Seed: 3}
	a := arena.New(workload.ArenaBytesFor(spec))
	rel := workload.Generate(a, spec).Build
	whole := Flatten(rel, nil)
	if len(whole) != rel.NTuples {
		t.Fatalf("Flatten: %d entries for %d tuples", len(whole), rel.NTuples)
	}

	var joined, scratch []Entry
	for lo := 0; lo < rel.NPages(); lo += 7 {
		scratch = FlattenPages(rel, lo, min(lo+7, rel.NPages()), scratch)
		joined = append(joined, scratch...)
	}
	if !slices.Equal(joined, whole) {
		t.Fatalf("page ranges flatten to %d entries that differ from the relation's %d", len(joined), len(whole))
	}
	again := FlattenPages(rel, 0, 7, whole)
	if &again[0] != &whole[0] {
		t.Fatalf("FlattenPages regrew a dst that had room")
	}
}

// countingPool counts the jobs a build hands to its pool.
type countingPool struct{ jobs int }

func (p *countingPool) Do(job *MorselJob) error { p.jobs++; return localPool{}.Do(job) }

// TestBuildRelationSingleMorselIsSerial: one worker, one page, or a
// build too small to cut in two, never reaches the pool — it is
// BuildSerial on the caller, byte for byte — while a build worth cutting
// is one pool job: serialize and publish share a pass.
func TestBuildRelationSingleMorselIsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint32, 6000)
	for i := range keys {
		keys[i] = 1 + uint32(rng.Intn(1500))
	}
	a := arena.New(4 << 20)
	for _, tc := range []struct {
		name     string
		rel      *storage.Relation
		workers  int
		jobs     int
		recycled bool
	}{
		{"one worker", keysRelation(a, keys, 24, 4096), 1, 0, false},
		{"tiny build", keysRelation(a, keys[:minBuildMorsel], 24, 4096), 4, 0, false},
		{"one page", keysRelation(a, keys[:1500], 24, 60_000), 4, 0, false},
		{"empty build", keysRelation(a, nil, 24, 4096), 4, 0, false},
		{"into a recycled slab", keysRelation(a, keys[:5000], 24, 4096), 1, 0, true},
		{"four workers", keysRelation(a, keys, 24, 4096), 4, 1, false},
	} {
		if tc.recycled {
			// A released table of another shape, full of another build's rows.
			old, err := BuildRelation(keysRelation(a, keys, 32, 4096), 32, BuildConfig{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			old.Release()
		}
		pool := &countingPool{}
		bs, err := BuildRelation(tc.rel, 24, BuildConfig{Scheme: Group, Workers: tc.workers, Pool: pool})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pool.jobs != tc.jobs {
			t.Errorf("%s: %d pool jobs, want %d", tc.name, pool.jobs, tc.jobs)
		}
		if tc.jobs == 0 {
			serial := &RowTable{}
			serial.Reset(tc.rel.NTuples, 24, 0)
			serial.BuildSerial(a.Data(), Flatten(tc.rel, nil), Group, DefaultG, DefaultD)
			if !slices.Equal(bs.t.rows, serial.rows) || !slices.Equal(bs.t.dir, serial.dir) {
				t.Errorf("%s: table differs from BuildSerial's", tc.name)
			}
		}
	}
}

// TestBuildRelationPageRanges is the parity proof of the one-pass build:
// for every scheme and worker count, over relations whose pages number
// none, one, fewer than the workers, and a count the workers do not
// divide — each ending in a page of one tuple — row i is the i-th tuple
// in storage order (what the right-outer bitmap indexes by), and the
// table holds BuildSerial's rows, code by code, as a multiset.
func TestBuildRelationPageRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint32, 6000)
	for i := range keys {
		keys[i] = 1 + uint32(rng.Intn(2000)) // chains
	}
	const width = 8 // 16 bytes a tuple with its slot
	perPage := func(pageSize int) int { return storage.CapacityFor(pageSize, width) }
	for _, tc := range []struct {
		name            string
		n, pageSize, np int
	}{
		{"no pages", 0, 4096, 0},
		{"one page", 3000, 60_000, 1},
		{"three pages", 2*perPage(32<<10) + 1, 32 << 10, 3},
		{"seven pages", 6*perPage(8<<10) + 1, 8 << 10, 7},
		{"many small pages", 5000, 512, (5000 + perPage(512) - 1) / perPage(512)},
	} {
		a := arena.New(1 << 20)
		rel := keysRelation(a, keys[:tc.n], width, tc.pageSize)
		if rel.NPages() != tc.np {
			t.Fatalf("%s: %d pages, the case wants %d", tc.name, rel.NPages(), tc.np)
		}
		entries := Flatten(rel, nil)
		serial := &RowTable{}
		serial.Reset(tc.n, width, 0)
		serial.BuildSerial(a.Data(), entries, Group, DefaultG, DefaultD)

		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			for _, workers := range []int{1, 2, 4} {
				bs, err := BuildRelation(rel, width, BuildConfig{Scheme: scheme, Workers: workers})
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", tc.name, scheme, workers, err)
				}
				if bs.NRows() != tc.n {
					t.Fatalf("%s %v workers=%d: %d rows, want %d", tc.name, scheme, workers, bs.NRows(), tc.n)
				}
				for i, e := range entries {
					off := bs.t.rowOff(uint32(i))
					row := bs.t.rows[off+rowCodeOff : off+uint64(bs.t.rowSize)]
					if binary.LittleEndian.Uint32(row) != e.Code ||
						binary.LittleEndian.Uint32(row[4:]) != e.Key || binary.LittleEndian.Uint32(row[8:]) != uint32(i) {
						t.Fatalf("%s %v workers=%d: row %d is not the %d-th tuple in storage order", tc.name, scheme, workers, i, i)
					}
				}
				requireSameCodes(t, bs.t, serial)
				bs.Release() // the next build overwrites this one's slab
			}
		}
	}
}

// TestProbeStreamWorkersShareMorsels runs one stream on 1, 2 and 4
// goroutines for every join type: each probe row is one worker's, the
// right-outer bitmap is everyone's, and the sweep runs once.
func TestProbeStreamWorkersShareMorsels(t *testing.T) {
	spec := workload.Spec{NBuild: 3000, TupleSize: 16, PctMatched: 60, MatchRate: 0.5, NProbe: 40_000, Seed: 5}
	_, _, _, pair := buildEntriesFor(t, spec)
	bs, err := BuildRelation(pair.Build, 16, BuildConfig{Workers: 2})
	if err != nil {
		t.Fatalf("BuildRelation: %v", err)
	}
	for _, jt := range plan.JoinTypes() {
		wantN, _ := pair.Expected(jt)
		for _, workers := range []int{1, 2, 4} {
			s := bs.NewProbeStream(context.Background(), pair.Probe, jt, Group, 0, 0)
			if s.Morsels() < 4 {
				t.Fatalf("probe side cut into %d morsels; the test wants several", s.Morsels())
			}
			counts := make([]int, workers)
			var wg sync.WaitGroup
			for w := range counts {
				sw := s.NewWorker()
				wg.Add(1)
				go func() {
					defer wg.Done()
					// As many calls as there are morsels: calls past the
					// last morsel return at once.
					for range s.Morsels() {
						if err := sw.ProbeMorsel(func([]byte, uint64) { counts[w]++ }); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			n := 0
			for _, c := range counts {
				n += c
			}
			s.EmitUnmatchedBuild(func([]byte, uint64) { n++ })
			if n != wantN {
				t.Errorf("%v on %d workers: %d rows, want %d", jt, workers, n, wantN)
			}
		}
	}
}
