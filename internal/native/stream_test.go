package native

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// TestPageInputCoversRelation: the streaming probe's page input, drawn
// a few tuples at a time over page ranges that include empty pages,
// yields each tuple's code, address and key once, in the storage order
// Flatten lists them in; and Flatten reuses a dst with room.
func TestPageInputCoversRelation(t *testing.T) {
	spec := workload.Spec{NBuild: 5000, TupleSize: 24, MatchesPerBuild: 1, Seed: 3}
	a := arena.New(workload.ArenaBytesFor(spec) + 1<<16)
	rel := withEmptyPages(a, workload.Generate(a, spec).Build, 0, 7, 20)
	whole := Flatten(rel, nil)
	if len(whole) != rel.NTuples {
		t.Fatalf("Flatten: %d entries for %d tuples", len(whole), rel.NTuples)
	}

	tbl := &RowTable{}
	tbl.Reset(rel.NTuples, 24, 0)
	var drawn []Entry
	states := make([]probeState, 5)
	for lo := 0; lo < rel.NPages(); lo += 7 {
		in := probeInput{data: a.Data(), pages: rel.Pages[lo:min(lo+7, rel.NPages())],
			pageSize: uint64(rel.PageSize), ctx: context.Background()}
		for {
			n := in.stage0(tbl, states, len(drawn), true)
			if n == 0 {
				break
			}
			for i := range states[:n] {
				st := &states[i]
				in.loadKey(st)
				if int(st.idx) != len(drawn) || st.slot != tbl.home(st.code) {
					t.Fatalf("tuple %d: idx %d, slot %d; want slot %d", len(drawn), st.idx, st.slot, tbl.home(st.code))
				}
				drawn = append(drawn, Entry{Code: st.code, Key: st.key, Ref: st.ref})
			}
		}
	}
	if !slices.Equal(drawn, whole) {
		t.Fatalf("page ranges draw %d tuples that differ from the relation's %d", len(drawn), len(whole))
	}
	again := Flatten(rel, whole)
	if &again[0] != &whole[0] {
		t.Fatalf("Flatten regrew a dst that had room")
	}
}

// withEmptyPages inserts an empty page into rel before each of the
// given page indexes (ascending, counted in rel's own pages) and
// returns it.
func withEmptyPages(a *arena.Arena, rel *storage.Relation, at ...int) *storage.Relation {
	var pages []arena.Addr
	for i, page := range rel.Pages {
		if len(at) > 0 && at[0] == i {
			pages = append(pages, storage.AllocPage(a, rel.PageSize, 0).Addr)
			at = at[1:]
		}
		pages = append(pages, page)
	}
	for range at {
		pages = append(pages, storage.AllocPage(a, rel.PageSize, 0).Addr)
	}
	rel.Pages = pages
	return rel
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
// goroutines for every scheme and join type: each probe row is one
// worker's, the right-outer bitmap is everyone's, and the sweep runs
// once. The stream reads its pages in place; its output must equal, as
// a multiset of (build row, probe ref), the entry path's — the probe
// relation flattened and fed to ProbeBatch. The probe sides hold a short
// last page, and one holds empty pages (the first of the relation and of
// a morsel among them); G = 1 and G = 7 do not divide a morsel, so one
// ends mid-group.
func TestProbeStreamWorkersShareMorsels(t *testing.T) {
	spec := workload.Spec{NBuild: 3000, TupleSize: 16, PctMatched: 60, MatchRate: 0.5, NProbe: 40_000, Seed: 5}
	_, _, _, pair := buildEntriesFor(t, spec)

	rng := rand.New(rand.NewSource(8))
	keys := make([]uint32, 20_000)
	for i := range keys {
		keys[i] = 1 + uint32(rng.Intn(2000))
	}
	a := arena.New(4 << 20)
	chained := keysRelation(a, keys[:1500], 8, 512) // duplicate keys: chains
	// 31 tuples a 512-byte page, so 20 000 end in a page of five. The
	// stream cuts the 650 pages into morsels of 273 (8192 over 30 tuples
	// a page), so the empty page inserted before page 271 begins the
	// second morsel.
	holed := withEmptyPages(a, keysRelation(a, keys, 8, 512), 0, 150, 271, len(keys))

	for _, tc := range []struct {
		name         string
		build, probe *storage.Relation
		width        int
		expected     func(plan.JoinType) (int, uint64)
	}{
		{"workload", pair.Build, pair.Probe, 16, pair.Expected},
		{"empty pages", chained, holed, 8, nil},
	} {
		bs, err := BuildRelation(tc.build, tc.width, BuildConfig{Workers: 2})
		if err != nil {
			t.Fatalf("%s: BuildRelation: %v", tc.name, err)
		}
		entries := Flatten(tc.probe, nil)
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			for i, gd := range []struct{ g, d int }{{1, 1}, {7, 3}, {0, 0}} {
				workers := []int{1, 2, 4}[i]
				for _, jt := range plan.JoinTypes() {
					what := fmt.Sprintf("%s %v G=%d D=%d %v on %d workers", tc.name, scheme, gd.g, gd.d, jt, workers)
					ref := bs.NewTypedProber(jt, scheme, gd.g, gd.d)
					var want matchSet
					ref.ProbeBatch(entries, want.add)
					ref.EmitUnmatchedBuild(want.add)

					s := bs.NewProbeStream(context.Background(), tc.probe, jt, scheme, gd.g, gd.d)
					if s.Morsels() < 3 {
						t.Fatalf("%s: probe side cut into %d morsels; the test wants several", what, s.Morsels())
					}
					if tc.probe == holed && holed.Page(s.perPages).NSlots() != 0 {
						t.Fatalf("%s: the second morsel does not begin with an empty page", what)
					}
					got := make([]matchSet, workers)
					var wg sync.WaitGroup
					for w := range got {
						sw := s.NewWorker()
						wg.Add(1)
						go func() {
							defer wg.Done()
							// As many calls as there are morsels: calls past
							// the last morsel return at once.
							for range s.Morsels() {
								if err := sw.ProbeMorsel(got[w].add); err != nil {
									t.Error(err)
								}
							}
						}()
					}
					wg.Wait()
					for _, g := range got[1:] {
						got[0] = append(got[0], g...)
					}
					s.EmitUnmatchedBuild(got[0].add)
					if tc.expected != nil {
						if wantN, _ := tc.expected(jt); len(got[0]) != wantN {
							t.Errorf("%s: %d rows, want %d", what, len(got[0]), wantN)
						}
					}
					if !got[0].equal(want) {
						t.Errorf("%s: %d rows that differ from the entry path's %d", what, len(got[0]), len(want))
					}
				}
			}
		}
		bs.Release()
	}
}

// matchSet collects emitted rows as (build row bytes, probe ref)
// strings, for comparing two probes' output as multisets.
type matchSet []string

func (m *matchSet) add(build []byte, probeRef uint64) {
	*m = append(*m, string(binary.LittleEndian.AppendUint64(slices.Clone(build), probeRef)))
}

func (m matchSet) equal(o matchSet) bool {
	slices.Sort(m)
	slices.Sort(o)
	return slices.Equal(m, o)
}
