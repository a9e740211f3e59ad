package hashjoin

// Pipeline benchmarks: the full Scan -> HashJoin -> HashAggregate
// operator pipeline on the native engine — the paper's join schemes
// composed with a downstream prefetched aggregation, running on real
// hardware. The workload is the pivot configuration at 200k build
// tuples (400k probe), streamed through one resident hash table
// (fanout 1) so batch handoff, not partitioning, is what is measured.
//
// BenchmarkPipelineSpeedup additionally writes BENCH_pipeline.json, a
// machine-readable trajectory point (end-to-end pipeline wall clock per
// scheme plus speedups over baseline):
//
//	go test -run=^$ -bench 'BenchmarkPipeline' -benchtime=3x .

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"hashjoin/internal/workload"
)

var pipelineBenchSpec = workload.Spec{
	NBuild:          200_000,
	TupleSize:       100,
	MatchesPerBuild: 2,
	PctMatched:      100,
	Seed:            42,
}

var (
	pipelineBenchOnce  sync.Once
	pipelineBenchEnv   *Env
	pipelineBenchBuild *Relation
	pipelineBenchProbe *Relation
	pipelineBenchPair  *workload.Pair
)

// pipelineBenchRelations generates the benchmark workload once. Each
// pipeline run stages scratch (join output ring, aggregation rows) in
// the Env's arena; RunPipeline's scope reclaims it, so repetitions
// never exhaust the arena.
func pipelineBenchRelations(tb testing.TB) (*Relation, *Relation, *workload.Pair) {
	pipelineBenchOnce.Do(func() {
		spec := pipelineBenchSpec
		pipelineBenchEnv = NewEnv(WithSmallHierarchy(),
			WithCapacity(workload.ArenaBytesFor(spec)*2))
		pipelineBenchPair = workload.Generate(pipelineBenchEnv.mem.A, spec)
		pipelineBenchBuild = &Relation{rel: pipelineBenchPair.Build, env: pipelineBenchEnv}
		pipelineBenchProbe = &Relation{rel: pipelineBenchPair.Probe, env: pipelineBenchEnv}
		// Untimed warmup: populate arena pages and operator scratch.
		runPipelineBenchOnce(tb, Baseline, 1)
	})
	return pipelineBenchBuild, pipelineBenchProbe, pipelineBenchPair
}

// runPipelineBenchOnce runs one validated pipeline, returning the
// elapsed wall clock. Per-run arena scratch is reclaimed by
// RunPipeline's own scope — the manual Truncate this helper used to do
// is now the engine's job (pinned by TestRunPipelineArenaStable).
func runPipelineBenchOnce(tb testing.TB, scheme Scheme, fanout int) time.Duration {
	res, err := pipelineBenchEnv.RunPipeline(pipelineBenchBuild, pipelineBenchProbe,
		WithEngine(EngineNative), WithPipelineScheme(scheme),
		WithAggregation(4, pipelineBenchSpec.NBuild), WithPipelineFanout(fanout))
	if err != nil {
		tb.Fatalf("scheme %v: %v", scheme, err)
	}
	if res.NOutput != pipelineBenchPair.ExpectedMatches || res.KeySum != pipelineBenchPair.KeySum {
		tb.Fatalf("scheme %v: wrong result (%d, %d), want (%d, %d)",
			scheme, res.NOutput, res.KeySum,
			pipelineBenchPair.ExpectedMatches, pipelineBenchPair.KeySum)
	}
	return res.Elapsed
}

func benchmarkPipeline(b *testing.B, scheme Scheme) {
	_, probe, _ := pipelineBenchRelations(b)
	b.ReportAllocs()
	b.ResetTimer()
	var last time.Duration
	for i := 0; i < b.N; i++ {
		last = runPipelineBenchOnce(b, scheme, 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(probe.Len())/last.Seconds()/1e6, "Mprobe/s")
}

func BenchmarkPipelineBaseline(b *testing.B)  { benchmarkPipeline(b, Baseline) }
func BenchmarkPipelineGroup(b *testing.B)     { benchmarkPipeline(b, Group) }
func BenchmarkPipelinePipelined(b *testing.B) { benchmarkPipeline(b, Pipelined) }

// BenchmarkPipelineMorsel runs the same pipeline with the join radix-
// partitioned and morsel-parallel, its workers feeding output batches
// into the downstream aggregation.
func BenchmarkPipelineMorsel(b *testing.B) {
	pipelineBenchRelations(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipelineBenchOnce(b, Group, pipelineMorselFanout)
	}
}

// runPipelineStreamOnce runs the bare streaming join (fanout 1, no
// aggregate: the shape whose probe the workers share) with that many
// workers, validated like its siblings.
func runPipelineStreamOnce(tb testing.TB, workers int) time.Duration {
	res, err := pipelineBenchEnv.RunPipeline(pipelineBenchBuild, pipelineBenchProbe,
		WithEngine(EngineNative), WithPipelineScheme(Group),
		WithPipelineFanout(1), WithPipelineWorkers(workers))
	if err != nil {
		tb.Fatalf("stream workers=%d: %v", workers, err)
	}
	if res.NOutput != pipelineBenchPair.ExpectedMatches || res.KeySum != pipelineBenchPair.KeySum {
		tb.Fatalf("stream workers=%d: wrong result (%d, %d), want (%d, %d)",
			workers, res.NOutput, res.KeySum,
			pipelineBenchPair.ExpectedMatches, pipelineBenchPair.KeySum)
	}
	return res.Elapsed
}

// pipelineStreamWorkers is the parallel half of the stream pair: every
// core, and at least two so the pair differs on a one-core host.
func pipelineStreamWorkers() int { return max(2, runtime.GOMAXPROCS(0)) }

// BenchmarkPipelineStream is the morsel-parallel streaming join against
// itself on one worker: same build, same probe, same ring.
func BenchmarkPipelineStream(b *testing.B) {
	pipelineBenchRelations(b)
	for _, workers := range []int{1, pipelineStreamWorkers()} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPipelineStreamOnce(b, workers)
			}
		})
	}
}

// pipelineTrajectory is the BENCH_pipeline.json document.
type pipelineTrajectory struct {
	NBuild      int  `json:"n_build"`
	NProbe      int  `json:"n_probe"`
	TupleSize   int  `json:"tuple_size"`
	Fanout      int  `json:"fanout"`
	GOMAXPROCS  int  `json:"gomaxprocs"`
	PrefetchASM bool `json:"prefetch_asm"`
	// Budget governor state: the configured memory budget (0 when
	// unbudgeted, as here) and the deepest recursive re-partitioning any
	// pair needed to fit it.
	MemBudget      int `json:"mem_budget"`
	RecursionDepth int `json:"recursion_depth"`
	// End-to-end pipeline wall clocks (scan, join, and aggregation —
	// unlike BENCH_native.json's join-phase-only times), medians over
	// interleaved repetitions.
	BaselineMs  float64 `json:"baseline_ms"`
	GroupMs     float64 `json:"group_ms"`
	PipelinedMs float64 `json:"pipelined_ms"`
	// Speedups are baseline elapsed over scheme elapsed.
	GroupSpeedup     float64 `json:"group_speedup"`
	PipelinedSpeedup float64 `json:"pipelined_speedup"`
	// The BenchmarkPipelineMorsel shape — Group with the join radix-
	// partitioned at MorselFanout — in the same interleaved repetitions.
	MorselFanout  int     `json:"morsel_fanout"`
	MorselGroupMs float64 `json:"morsel_group_ms"`
	// The BenchmarkPipelineStream pair — the bare streaming join (no
	// aggregate) on one worker and on StreamWorkers — in the same
	// interleaved repetitions.
	StreamWorkers  int     `json:"stream_workers"`
	StreamSerialMs float64 `json:"stream_serial_ms"`
	StreamMs       float64 `json:"stream_ms"`
}

// pipelineMorselFanout is the morsel benchmarks' partition count.
const pipelineMorselFanout = 64

// BenchmarkPipelineSpeedup measures all three schemes end to end (and
// Group once more over the morsel join, and the bare streaming join on
// one worker and on every core), reports the pipeline wall-clock
// speedups of Group and Pipelined over Baseline, and emits
// BENCH_pipeline.json. Repetitions interleave the schemes so host drift
// lands on all of them alike, and per-scheme medians are compared (see
// BenchmarkNativeSpeedup for why medians).
func BenchmarkPipelineSpeedup(b *testing.B) {
	pipelineBenchRelations(b)
	const reps = 9
	var base, grp, pipe, morsel, stream1, streamN time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bs, gs, ps, ms, s1, sn []time.Duration
		for rep := 0; rep < reps; rep++ {
			bs = append(bs, runPipelineBenchOnce(b, Baseline, 1))
			gs = append(gs, runPipelineBenchOnce(b, Group, 1))
			ps = append(ps, runPipelineBenchOnce(b, Pipelined, 1))
			ms = append(ms, runPipelineBenchOnce(b, Group, pipelineMorselFanout))
			s1 = append(s1, runPipelineStreamOnce(b, 1))
			sn = append(sn, runPipelineStreamOnce(b, pipelineStreamWorkers()))
		}
		base, grp, pipe, morsel = medianDuration(bs), medianDuration(gs), medianDuration(ps), medianDuration(ms)
		stream1, streamN = medianDuration(s1), medianDuration(sn)
	}
	b.StopTimer()

	traj := pipelineTrajectory{
		NBuild:           pipelineBenchBuild.Len(),
		NProbe:           pipelineBenchProbe.Len(),
		TupleSize:        pipelineBenchSpec.TupleSize,
		Fanout:           1,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		PrefetchASM:      NativeHasPrefetch(),
		BaselineMs:       float64(base.Microseconds()) / 1e3,
		GroupMs:          float64(grp.Microseconds()) / 1e3,
		PipelinedMs:      float64(pipe.Microseconds()) / 1e3,
		GroupSpeedup:     base.Seconds() / grp.Seconds(),
		PipelinedSpeedup: base.Seconds() / pipe.Seconds(),
		MorselFanout:     pipelineMorselFanout,
		MorselGroupMs:    float64(morsel.Microseconds()) / 1e3,
		StreamWorkers:    pipelineStreamWorkers(),
		StreamSerialMs:   float64(stream1.Microseconds()) / 1e3,
		StreamMs:         float64(streamN.Microseconds()) / 1e3,
	}
	b.ReportMetric(traj.GroupSpeedup, "group-speedup")
	b.ReportMetric(traj.PipelinedSpeedup, "pipelined-speedup")

	if doc, err := json.MarshalIndent(traj, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_pipeline.json", append(doc, '\n'), 0o644); err != nil {
			b.Logf("BENCH_pipeline.json not written: %v", err)
		}
	}
}
