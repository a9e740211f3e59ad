package hashjoin

// Strategy-crossover calibration: the cost-based planner's pinned
// defaults (plan.DefaultNestedLoopCrossover and
// plan.DefaultPartitionCrossoverBytes) are measured here, not guessed.
//
// The nested-loop sweep holds the probe side fixed and grows the build
// side through the planner's decision region: below the crossover a
// flat scan beats paying for a hash-table build, above it the hash
// probe wins. The partition sweep grows the build footprint from
// cache-resident to cache-overflowing and compares one streaming probe
// against the radix-partitioned morsel join. Each point interleaves
// its strategies across repetitions and compares medians.
//
//	go test -run=^$ -bench BenchmarkJoinCrossover -benchtime=1x -v .
//
// The benchmark logs every swept point and both measured crossovers
// next to the pinned constants; EXPERIMENTS.md records the readings on
// the reference host. Re-pinning a constant changes plan.Choose output
// and is a deliberate planner change, not a side effect of a run.

import (
	"sort"
	"testing"
	"time"

	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/workload"
)

const (
	joinBenchNLProbe = 8192 // probe rows for the nested-loop sweep
	joinBenchNLTuple = 16
	joinBenchPTuple  = 64
	joinBenchPFanout = 64
)

// joinBenchNLSizes sweeps the build side through the nested-loop
// decision region; joinBenchPSizes sweeps the build footprint from
// comfortably cache-resident to several times any last-level cache.
var (
	joinBenchNLSizes = []int{2, 4, 8, 16, 32, 64}
	joinBenchPSizes  = []int{4096, 8192, 16384, 32768, 131072, 524288}
)

// runJoinBenchOnce runs one strategy over one prepared pair and
// validates the exact inner-join ground truth.
func runJoinBenchOnce(tb testing.TB, env *Env, pair *workload.Pair, s Strategy, fanout int) PipelineResult {
	build := &Relation{rel: pair.Build, env: env}
	probe := &Relation{rel: pair.Probe, env: env}
	opts := []PipelineOption{WithEngine(EngineNative), WithStrategy(s)}
	if fanout > 1 {
		opts = append(opts, WithPipelineFanout(fanout))
	}
	res, err := env.RunPipeline(build, probe, opts...)
	if err != nil {
		tb.Fatalf("strategy %v over %d build rows: %v", s, pair.Build.NTuples, err)
	}
	if res.NOutput != pair.ExpectedMatches || res.KeySum != pair.KeySum {
		tb.Fatalf("strategy %v over %d build rows: wrong result (%d, %d), want (%d, %d)",
			s, pair.Build.NTuples, res.NOutput, res.KeySum, pair.ExpectedMatches, pair.KeySum)
	}
	return res
}

// medianDuration returns the middle element of ds (averaging the two
// middle elements for even lengths). It sorts ds in place. Medians of
// interleaved repetitions, not best-of-N: on a shared virtualized CPU
// the per-rep spread is asymmetric (occasional 1.5-2x slow outliers),
// which makes the minimum unstable but leaves the median steady.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}

// sweepPair measures two strategies over one pair with interleaved
// repetitions and returns the per-strategy median elapsed times.
func sweepPair(tb testing.TB, env *Env, pair *workload.Pair, a, b Strategy, bFanout, reps int) (time.Duration, time.Duration) {
	var at, bt []time.Duration
	for rep := 0; rep < reps; rep++ {
		at = append(at, runJoinBenchOnce(tb, env, pair, a, 1).Elapsed)
		bt = append(bt, runJoinBenchOnce(tb, env, pair, b, bFanout).Elapsed)
	}
	return medianDuration(at), medianDuration(bt)
}

// BenchmarkJoinCrossover measures the nested-loop/stream and
// stream/partitioned crossover points and logs them beside the pinned
// planner defaults.
func BenchmarkJoinCrossover(b *testing.B) {
	env := NewEnv(WithCapacity(384 << 20))
	nlPairs := make([]*workload.Pair, len(joinBenchNLSizes))
	for i, n := range joinBenchNLSizes {
		nlPairs[i] = workload.Generate(env.mem.A, workload.Spec{
			NBuild: n, NProbe: joinBenchNLProbe, TupleSize: joinBenchNLTuple,
			MatchRate: 0.5, Seed: int64(60 + i),
		})
	}
	pPairs := make([]*workload.Pair, len(joinBenchPSizes))
	for i, n := range joinBenchPSizes {
		pPairs[i] = workload.Generate(env.mem.A, workload.Spec{
			NBuild: n, NProbe: n, TupleSize: joinBenchPTuple,
			MatchesPerBuild: 1, Seed: int64(70 + i),
		})
	}

	// Untimed warmup: touch every strategy's scratch pools once.
	runJoinBenchOnce(b, env, nlPairs[0], StrategyNestedLoop, 1)
	runJoinBenchOnce(b, env, nlPairs[0], StrategyStream, 1)
	runJoinBenchOnce(b, env, pPairs[0], StrategyPartitioned, joinBenchPFanout)

	// nl and st hold the nested-loop sweep's per-size medians.
	nl := make([]time.Duration, len(nlPairs))
	st := make([]time.Duration, len(nlPairs))
	var nlCross, partCross int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nlCross, partCross = 0, 0
		for j, pair := range nlPairs {
			nl[j], st[j] = sweepPair(b, env, pair, StrategyNestedLoop, StrategyStream, 1, 9)
			b.Logf("nested loop %3d build rows: nested-loop %v, stream %v", joinBenchNLSizes[j], nl[j], st[j])
			if nl[j] <= st[j] {
				nlCross = joinBenchNLSizes[j]
			}
		}
		for _, pair := range pPairs {
			s, p := sweepPair(b, env, pair, StrategyStream, StrategyPartitioned, joinBenchPFanout, 3)
			footprint := native.BuildFootprint(pair.Build.NTuples, joinBenchPTuple)
			b.Logf("partition %8d B footprint: stream %v, partitioned %v", footprint, s, p)
			// The smallest swept footprint the partitioned join won; 0
			// when it never did inside the sweep.
			if p < s && partCross == 0 {
				partCross = footprint
			}
		}
	}
	b.StopTimer()

	// Shape gates that hold on any hardware: the flat scan must win at
	// the smallest build side and lose at the largest swept one —
	// otherwise the sweep no longer brackets a crossover and the pinned
	// default is meaningless.
	last := len(nl) - 1
	if nl[0] > st[0] {
		b.Fatalf("nested loop lost at %d build rows (%v vs %v): sweep floor too high",
			joinBenchNLSizes[0], nl[0], st[0])
	}
	if nl[last] <= st[last] {
		b.Fatalf("nested loop still won at %d build rows (%v vs %v): sweep ceiling too low",
			joinBenchNLSizes[last], nl[last], st[last])
	}
	b.Logf("nested-loop crossover: measured %d rows, pinned plan.DefaultNestedLoopCrossover %d",
		nlCross, plan.DefaultNestedLoopCrossover)
	b.Logf("partition crossover: measured %d B, pinned plan.DefaultPartitionCrossoverBytes %d",
		partCross, plan.DefaultPartitionCrossoverBytes)
	b.ReportMetric(float64(nlCross), "nl-crossover-rows")
	b.ReportMetric(float64(partCross), "partition-crossover-bytes")
}
