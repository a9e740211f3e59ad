package native

import (
	"context"
	"slices"
	"sync"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
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

// TestBuildRowsSingleMorselIsSerial: one worker, or a build too small to
// cut in two, never reaches the pool — it is BuildSerial on the caller,
// byte for byte — while a build worth cutting takes both pool phases.
func TestBuildRowsSingleMorselIsSerial(t *testing.T) {
	spec := workload.Spec{NBuild: 6000, TupleSize: 24, MatchesPerBuild: 1, Seed: 4, Skew: 4}
	data, build, _, _ := buildEntriesFor(t, spec)
	for _, tc := range []struct {
		name    string
		entries []Entry
		workers int
		jobs    int
	}{
		{"one worker", build, 1, 0},
		{"tiny build", build[:minBuildMorsel], 4, 0},
		{"empty build", nil, 4, 0},
		{"four workers", build, 4, 2},
	} {
		pool := &countingPool{}
		bs, err := BuildRows(data, tc.entries, 24, BuildConfig{Scheme: Group, Workers: tc.workers, Pool: pool})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pool.jobs != tc.jobs {
			t.Errorf("%s: %d pool jobs, want %d", tc.name, pool.jobs, tc.jobs)
		}
		if tc.jobs == 0 {
			serial := &RowTable{}
			serial.Reset(len(tc.entries), 24, 0)
			serial.BuildSerial(data, tc.entries, Group, DefaultG, DefaultD)
			if !slices.Equal(bs.t.rows, serial.rows) || !slices.Equal(bs.t.dir, serial.dir) {
				t.Errorf("%s: table differs from BuildSerial's", tc.name)
			}
		}
	}
}

// TestProbeStreamWorkersShareMorsels runs one stream on 1, 2 and 4
// goroutines for every join type: each probe row is one worker's, the
// right-outer bitmap is everyone's, and the sweep runs once.
func TestProbeStreamWorkersShareMorsels(t *testing.T) {
	spec := workload.Spec{NBuild: 3000, TupleSize: 16, PctMatched: 60, MatchRate: 0.5, NProbe: 40_000, Seed: 5}
	data, build, _, pair := buildEntriesFor(t, spec)
	bs, err := BuildRows(data, build, 16, BuildConfig{Workers: 2})
	if err != nil {
		t.Fatalf("BuildRows: %v", err)
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
					for {
						more, err := sw.ProbeNext(func([]byte, uint64) { counts[w]++ })
						if err != nil {
							t.Error(err)
						}
						if !more {
							return
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
