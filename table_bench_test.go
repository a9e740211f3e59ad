package hashjoin

// Row-table build/probe benchmark for the v2 hash table: how much the
// concurrent CAS-publish build buys over a serial build as workers
// grow, and how much a cached BuildSide buys a query that would
// otherwise rebuild the table. BenchmarkTableBuild writes
// BENCH_table.json:
//
//	go test -run=^$ -bench BenchmarkTableBuild -benchtime=1x .

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hashjoin/internal/native"
	"hashjoin/internal/storage"
)

const (
	tableBenchNBuild = 60000
	tableBenchTuple  = 40
)

var (
	tableBenchOnce sync.Once
	tableBenchEnv  *Env
	tableBenchW    *Workload
)

func tableBenchSetup(tb testing.TB) {
	tableBenchOnce.Do(func() {
		tableBenchEnv = NewEnv(WithSmallHierarchy(), WithCapacity(256<<20))
		w, err := tableBenchEnv.GenerateWorkload(context.Background(), tableBenchNBuild, 2*tableBenchNBuild, tableBenchTuple, 17)
		if err != nil {
			tb.Fatalf("workload: %v", err)
		}
		tableBenchW = w
	})
}

// serialBuild is the single-goroutine baseline every concurrent point is
// normalized against: the relation flattened into entries, then
// BuildSerial over them, into a table and an entry array it keeps from
// one build to the next — the same footing as BuildRelation, which
// starts from the relation too and builds into a recycled table.
type serialBuild struct {
	t       native.RowTable
	entries []native.Entry
}

func (s *serialBuild) time(rel *storage.Relation, width int) time.Duration {
	start := time.Now()
	s.entries = native.Flatten(rel, s.entries)
	s.t.Reset(len(s.entries), width, 0)
	s.t.BuildSerial(rel.Arena().Data(), s.entries, native.Group, native.DefaultG, native.DefaultD)
	return time.Since(start)
}

// timeConcurrentBuild times one BuildRelation (one pass: serialize and
// CAS-publish page ranges) at the given worker count, and hands the
// table back as the engine does at the end of a query.
func timeConcurrentBuild(tb testing.TB, rel *storage.Relation, width, workers int) time.Duration {
	start := time.Now()
	bs, err := native.BuildRelation(rel, width, native.BuildConfig{
		Scheme: native.Group, Workers: workers,
	})
	elapsed := time.Since(start)
	if err != nil || bs.NRows() != rel.NTuples {
		tb.Fatalf("BuildRelation(workers=%d) = (%v, %v)", workers, bs, err)
	}
	bs.Release()
	return elapsed
}

// runTableQuery runs one streaming native join, optionally probing a
// cached BuildSide instead of rebuilding, and validates the output.
func runTableQuery(tb testing.TB, b *BuildSide) time.Duration {
	opts := []PipelineOption{WithEngine(EngineNative), WithPipelineScheme(Group)}
	if b != nil {
		opts = append(opts, WithBuildSide(b))
	}
	res, err := tableBenchEnv.RunPipeline(tableBenchW.Build, tableBenchW.Probe, opts...)
	if err != nil {
		tb.Fatalf("query (cached=%v): %v", b != nil, err)
	}
	if res.NOutput != tableBenchW.ExpectedMatches || res.KeySum != tableBenchW.KeySum {
		tb.Fatalf("query (cached=%v) = (%d, %d), want (%d, %d)",
			b != nil, res.NOutput, res.KeySum, tableBenchW.ExpectedMatches, tableBenchW.KeySum)
	}
	return res.Elapsed
}

// tableBuildPoint is one worker count in BENCH_table.json.
type tableBuildPoint struct {
	Workers int     `json:"workers"`
	BuildMs float64 `json:"build_ms"`
	// Speedup over the serial single-goroutine build.
	Speedup float64 `json:"speedup"`
}

// tableTrajectory is the BENCH_table.json document.
type tableTrajectory struct {
	NBuild      int     `json:"n_build"`
	NProbe      int     `json:"n_probe"`
	TupleSize   int     `json:"tuple_size"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	PrefetchASM bool    `json:"prefetch_asm"`
	SerialMs    float64 `json:"serial_build_ms"`
	// Concurrent one-pass build (serialize and CAS-publish page ranges)
	// at rising worker counts.
	BuildPoints []tableBuildPoint `json:"build_points"`
	// One full streaming query that rebuilds the table, vs the same
	// query probing a resident BuildSide.
	ProbeRebuildMs float64 `json:"probe_rebuild_ms"`
	ProbeCachedMs  float64 `json:"probe_cached_ms"`
	CachedSpeedup  float64 `json:"cached_speedup"`
}

// BenchmarkTableBuild sweeps the concurrent build over 1, 2, 4 workers
// against a serial baseline, compares a rebuild-per-query join with a
// cached-BuildSide join, and emits BENCH_table.json. Reps interleave
// across the sweep so host drift lands on every level alike.
func BenchmarkTableBuild(b *testing.B) {
	tableBenchSetup(b)
	rel := tableBenchW.Build.rel
	width := rel.Schema.FixedWidth()
	var sb serialBuild
	workerLevels := []int{1, 2, 4}

	cached, err := tableBenchEnv.PrepareBuildSide(context.Background(), tableBenchW.Build)
	if err != nil {
		b.Fatalf("PrepareBuildSide: %v", err)
	}

	// Untimed warmup of every measured path.
	sb.time(rel, width)
	timeConcurrentBuild(b, rel, width, workerLevels[len(workerLevels)-1])
	runTableQuery(b, nil)
	runTableQuery(b, cached)

	const reps = 5
	serial := make([]time.Duration, 0, reps)
	builds := make([][]time.Duration, len(workerLevels))
	rebuild := make([]time.Duration, 0, reps)
	probeCached := make([]time.Duration, 0, reps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial, rebuild, probeCached = serial[:0], rebuild[:0], probeCached[:0]
		for j := range builds {
			builds[j] = builds[j][:0]
		}
		for rep := 0; rep < reps; rep++ {
			serial = append(serial, sb.time(rel, width))
			for j, wkr := range workerLevels {
				builds[j] = append(builds[j], timeConcurrentBuild(b, rel, width, wkr))
			}
			rebuild = append(rebuild, runTableQuery(b, nil))
			probeCached = append(probeCached, runTableQuery(b, cached))
		}
	}
	b.StopTimer()

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	traj := tableTrajectory{
		NBuild:         tableBenchNBuild,
		NProbe:         2 * tableBenchNBuild,
		TupleSize:      tableBenchTuple,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		PrefetchASM:    NativeHasPrefetch(),
		SerialMs:       ms(medianDuration(serial)),
		ProbeRebuildMs: ms(medianDuration(rebuild)),
		ProbeCachedMs:  ms(medianDuration(probeCached)),
	}
	traj.CachedSpeedup = traj.ProbeRebuildMs / traj.ProbeCachedMs
	for j, wkr := range workerLevels {
		bms := ms(medianDuration(builds[j]))
		traj.BuildPoints = append(traj.BuildPoints, tableBuildPoint{
			Workers: wkr,
			BuildMs: bms,
			Speedup: traj.SerialMs / bms,
		})
	}
	b.ReportMetric(traj.BuildPoints[len(traj.BuildPoints)-1].Speedup, "build-speedup@4workers")
	b.ReportMetric(traj.CachedSpeedup, "cached-probe-speedup")

	if doc, err := json.MarshalIndent(traj, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_table.json", append(doc, '\n'), 0o644); err != nil {
			b.Logf("BENCH_table.json not written: %v", err)
		}
	}
}
