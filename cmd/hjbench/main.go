// Command hjbench regenerates the paper's tables and figures under the
// cycle simulator, and — with -engine native — benchmarks the same join
// schemes on the host hardware, reporting wall-clock speedups of group
// and software-pipelined prefetching over the baseline the same way the
// simulator reports cycle speedups. With -pipeline it benchmarks the
// full Scan -> HashJoin -> HashAggregate operator pipeline instead of
// the monolithic join, on either engine — the same shared plan hjquery
// runs.
//
// Usage:
//
//	hjbench -list
//	hjbench -fig fig10a [-scale small|full|tiny] [-csv]
//	hjbench -all [-scale small]
//	hjbench -engine native [-build 500000] [-tuple 100] [-schemes baseline,group,pipelined]
//	hjbench -pipeline -engine native [-build 200000] [-schemes baseline,group,pipelined]
//
// Full scale reproduces the paper's exact setup (1 MB L2, 50 MB join
// memory) and takes minutes per figure; small scale preserves the 50:1
// memory:cache ratio at an eighth of the size and runs in seconds.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/cli"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/exp"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/workload"
)

const prog = "hjbench"

func main() {
	var (
		engineArg = flag.String("engine", "sim", "execution engine: sim (reproduce figures) or native (host-hardware benchmark)")
		pipeMode  = flag.Bool("pipeline", false, "benchmark the full scan-join-aggregate operator pipeline instead of the monolithic join")
		fig       = flag.String("fig", "", "experiment id to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiment ids")
		scale     = flag.String("scale", "small", "scale: tiny, small, or full")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		nBuild    = flag.Int("build", 500000, "native/pipeline: build relation tuple count")
		tuple     = flag.Int("tuple", 100, "native/pipeline: tuple size in bytes")
		matches   = flag.Int("matches", 2, "native/pipeline: probe tuples per build tuple")
		skew      = flag.Int("skew", 0, "native/pipeline: repeat each build key this many times (0/1 = unique keys); high skew defeats partitioning and exercises the spill tier")
		schemes   = flag.String("schemes", "baseline,group,pipelined", "native/pipeline: comma-separated schemes to compare")
		fanout    = flag.Int("fanout", 1, "native/pipeline: partition fan-out (1 = single pair, the paper's join-phase setup)")
		workers   = flag.Int("workers", 0, "native: morsel workers (0 = all CPUs)")
		memBudget = flag.Int("mem-budget", 0, "native/pipeline: resident build-side budget in bytes (0 = unbudgeted); an oversized pair spills its irreducible hot keys to disk and re-partitions the rest")
		spillDir  = flag.String("spill-dir", "", "native/pipeline: parent directory for the out-of-core spill area (default: OS temp dir)")
		spillWork = flag.Int("spill-workers", 0, "native/pipeline: write-behind workers for the spill tier (0 = default)")
		noSpill   = flag.Bool("no-spill", false, "native/pipeline: disable the spill tier; an irreducible over-budget pair fails instead")
		joinType  = flag.String("join-type", "inner", "pipeline: join semantics: inner, left-outer, right-outer, semi, or anti")
		strat     = flag.String("strategy", "auto", "pipeline: join strategy: auto (cost-based planner), stream, or partitioned")
		matchRate = flag.Float64("match-rate", 0, "pipeline: fraction of probe tuples with a build match in (0, 1]; overrides -matches")
		zipfS     = flag.Float64("zipf", 0, "native/pipeline: Zipf skew parameter s for build keys (0 = uniform keys); probe keys stay uniform over the same universe")
		zipfKeys  = flag.Int("zipf-keys", 0, "native/pipeline: distinct-key universe for -zipf (0 = default 256)")
		reps      = flag.Int("reps", 3, "native/pipeline: repetitions per scheme (medians reported)")
		seed      = flag.Int64("seed", 42, "native/pipeline: workload seed")
		timeout   = flag.Duration("timeout", 0, "native/pipeline: abort the benchmark after this long (0 = no limit); a timed-out run exits with code 4")
	)
	flag.Parse()

	backend, err := cli.ParseEngine(*engineArg)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	if *spillWork < 0 {
		cli.Fatalf(prog, "negative -spill-workers %d", *spillWork)
	}
	if *timeout < 0 {
		cli.Fatalf(prog, "negative -timeout %v", *timeout)
	}
	ctx := context.Context(nil) // nil: no deadline
	if *timeout > 0 {
		c, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ctx = c
	}
	jt, err := plan.ParseJoinType(*joinType)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	strategy, err := plan.ParseStrategy(*strat)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	if *matchRate < 0 || *matchRate > 1 {
		cli.Fatalf(prog, "-match-rate %v outside (0, 1]", *matchRate)
	}
	if !*pipeMode && (jt != plan.Inner || strategy != plan.Auto || *matchRate != 0) {
		cli.Fatalf(prog, "-join-type, -strategy, and -match-rate need -pipeline (the monolithic join benchmarks the inner join only)")
	}
	sp := spillOpts{dir: *spillDir, workers: *spillWork, off: *noSpill}
	spec := workload.Spec{
		NBuild:          *nBuild,
		TupleSize:       *tuple,
		MatchesPerBuild: *matches,
		PctMatched:      100,
		Skew:            *skew,
		ZipfS:           *zipfS,
		ZipfKeys:        *zipfKeys,
		MatchRate:       *matchRate,
		Seed:            *seed,
	}

	if *pipeMode {
		runPipeline(ctx, backend, spec, *schemes, jt, strategy, *fanout, *workers, *memBudget, sp, *reps)
		return
	}
	if backend == engine.Native {
		runNative(ctx, spec, *schemes, *fanout, *workers, *memBudget, sp, *reps)
		return
	}

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	sc, ok := exp.ByName(*scale)
	if !ok {
		cli.Fatalf(prog, "unknown scale %q (accepted: tiny, small, full)", *scale)
	}

	switch {
	case *all:
		for _, e := range exp.Experiments() {
			runOne(e, sc, *csv)
		}
	case *fig != "":
		e, ok := exp.Lookup(strings.ToLower(*fig))
		if !ok {
			cli.Fatalf(prog, "unknown experiment %q; try -list", *fig)
		}
		runOne(e, sc, *csv)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// spillOpts carries the out-of-core tier's flags into the native runs.
type spillOpts struct {
	dir     string
	workers int
	off     bool
}

// runPipeline benchmarks the shared operator pipeline per scheme on the
// selected engine. Each run uses a fresh arena (same seed, identical
// workload bytes); native repetitions interleave the schemes so host
// drift lands on all of them alike, and medians are compared. The
// simulator is deterministic, so one rep suffices there.
func runPipeline(ctx context.Context, backend engine.Backend, spec workload.Spec, schemeList string, jt plan.JoinType, strategy plan.Strategy, fanout, workers, memBudget int, sp spillOpts, reps int) {
	parsed, err := cli.ParseSchemeList(schemeList)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	if backend == engine.Sim || reps < 1 {
		reps = 1
	}
	fanout = cli.NormalizeFanout(fanout)

	fmt.Printf("pipeline benchmark (%v engine): scan -> %v join -> aggregate, %d build tuples, %d B each, fanout %d",
		backend, jt, spec.NBuild, spec.TupleSize, fanout)
	if memBudget > 0 {
		fmt.Printf(", budget %d B", memBudget)
	}
	fmt.Println()

	var explained bool
	run := func(scheme core.Scheme) cli.PipelineResult {
		p := &cli.Pipeline{
			Engine: backend, Spec: spec, Scheme: scheme,
			Params: core.DefaultParams(), Fanout: fanout, Workers: workers,
			MemBudget: memBudget,
			SpillDir:  sp.dir, SpillWorkers: sp.workers, NoSpill: sp.off,
			JoinType: jt, Strategy: strategy,
			Ctx: ctx,
		}
		if backend == engine.Native {
			p.Params = core.Params{} // native defaults
		}
		if err := p.Validate(); err != nil {
			cli.Fatalf(prog, "%v", err)
		}
		res, err := p.Run()
		if err != nil {
			cli.DiePipeline(prog, fmt.Errorf("scheme %v: %w", scheme, err))
		}
		if res.Plan != nil && !explained {
			explained = true
			fmt.Printf("strategy: %s\n", res.Plan.Explain())
		}
		return res
	}

	results := make([][]cli.PipelineResult, len(parsed))
	for r := 0; r < reps; r++ {
		for i, s := range parsed {
			results[i] = append(results[i], run(s))
		}
	}

	if backend == engine.Sim {
		var base uint64
		fmt.Printf("%-10s %14s %10s\n", "scheme", "Mcycles", "speedup")
		for i, s := range parsed {
			cycles := results[i][0].Stats.Total()
			speedup := "1.00x"
			if base == 0 {
				base = cycles
			} else {
				speedup = fmt.Sprintf("%.2fx", float64(base)/float64(cycles))
			}
			fmt.Printf("%-10v %14.2f %10s\n", s, float64(cycles)/1e6, speedup)
		}
		return
	}
	var base time.Duration
	fmt.Printf("%-10s %12s %10s %12s\n", "scheme", "total", "speedup", "Mprobe/s")
	for i, s := range parsed {
		med := medianElapsed(results[i])
		speedup := "1.00x"
		if base == 0 {
			base = med
		} else {
			speedup = fmt.Sprintf("%.2fx", base.Seconds()/med.Seconds())
		}
		nProbe := spec.NBuild * spec.MatchesPerBuild
		fmt.Printf("%-10v %10.2fms %10s %12.1f\n", s, med.Seconds()*1e3,
			speedup, float64(nProbe)/med.Seconds()/1e6)
	}
	if memBudget > 0 && len(results) > 0 && len(results[0]) > 0 {
		r := results[0][0]
		fmt.Printf("(budget governor: join fanout %d, recursion depth %d)\n",
			r.JoinFanout, r.JoinRecursionDepth)
		if r.SpilledPartitions > 0 {
			fmt.Printf("(spill: %d pair(s), %d B written, %d B read, stalls write %v read %v)\n",
				r.SpilledPartitions, r.SpillBytesWritten, r.SpillBytesRead,
				r.SpillWriteStall, r.SpillReadStall)
		}
		fmt.Printf("(hybrid: %d resident pair(s), %d demoted, %d B demoted)\n",
			r.ResidentPartitions, r.DemotedPartitions, r.BytesDemoted)
	}
	fmt.Printf("(speedup = first scheme's elapsed / scheme's elapsed; medians of %d interleaved reps; all results validated)\n", reps)
}

func medianElapsed(rs []cli.PipelineResult) time.Duration {
	sorted := make([]time.Duration, len(rs))
	for i, r := range rs {
		sorted[i] = r.Elapsed
	}
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// runNative benchmarks the requested schemes as monolithic native joins
// and prints a wall-clock speedup table.
func runNative(ctx context.Context, spec workload.Spec, schemeList string, fanout, workers, memBudget int, sp spillOpts, reps int) {
	parsed, err := cli.ParseSchemeList(schemeList)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	schemes := make([]native.Scheme, len(parsed))
	for i, s := range parsed {
		schemes[i] = engine.NativeScheme(s)
	}
	if reps < 1 {
		reps = 1
	}

	jcfg := native.Config{
		Fanout: fanout, Workers: workers,
		SpillDir: sp.dir, SpillWorkers: sp.workers, NoSpill: sp.off,
		Ctx: ctx,
	}
	if memBudget > 0 {
		jcfg.MemBudget = memBudget
		if fanout == 1 {
			jcfg.Fanout = 0 // let the budget derive the fan-out
		}
	}
	// The arena holds the workload plus the spill tier's page pool.
	a := arena.New(workload.ArenaBytesFor(spec) + native.SpillPoolBytes(jcfg))
	pair := workload.Generate(a, spec)
	fmt.Printf("native join benchmark: %d build x %d probe tuples, %d B each, fanout %d, prefetch asm %v\n",
		pair.Build.NTuples, pair.Probe.NTuples, spec.TupleSize, fanout, native.HavePrefetch)

	// One resident Joiner serves every measurement, so all schemes run
	// on the same recycled memory; an untimed warmup join pays the
	// one-time page-population cost. Repetitions interleave the schemes
	// (scheme A rep 1, scheme B rep 1, ..., scheme A rep 2, ...) so slow
	// host drift lands on all schemes alike rather than on whichever ran
	// last, and the per-scheme medians are compared — on shared or
	// virtualized CPUs the rep spread is asymmetric (occasional big slow
	// outliers), which destabilizes a best-of comparison but not the
	// median.
	jn := native.NewJoiner()
	// Spill pool pages are per-Join scratch; reclaim them between reps so
	// repeated budgeted runs don't accumulate arena usage.
	joinMark := a.Used()
	run := func(s native.Scheme) native.Result {
		a.Truncate(joinMark)
		jcfg.Scheme = s
		res, err := jn.Join(pair.Build, pair.Probe, jcfg)
		if err != nil {
			cli.DiePipeline(prog, fmt.Errorf("scheme %v: %w", s, err))
		}
		if res.NOutput != pair.ExpectedMatches || res.KeySum != pair.KeySum {
			cli.Dief(prog, "scheme %v: result mismatch: (%d, %d) vs (%d, %d) expected",
				s, res.NOutput, res.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
		return res
	}
	run(schemes[0]) // warmup: populate scratch pages, untimed
	results := make([][]native.Result, len(schemes))
	for r := 0; r < reps; r++ {
		for i, s := range schemes {
			results[i] = append(results[i], run(s))
		}
	}

	var baseline time.Duration
	fmt.Printf("%-10s %12s %12s %12s %10s %12s\n",
		"scheme", "partition", "join", "total", "speedup", "Mprobe/s")
	for i, s := range schemes {
		b := medianResult(results[i])
		speedup := "1.00x"
		if baseline == 0 {
			baseline = b.Elapsed
		} else {
			speedup = fmt.Sprintf("%.2fx", baseline.Seconds()/b.Elapsed.Seconds())
		}
		fmt.Printf("%-10v %10.2fms %10.2fms %10.2fms %10s %12.1f\n",
			s, secsMS(b.PartitionTime), secsMS(b.JoinTime), secsMS(b.Elapsed),
			speedup, float64(pair.Probe.NTuples)/b.JoinTime.Seconds()/1e6)
	}
	if memBudget > 0 {
		b := results[0][0]
		fmt.Printf("(budget governor: %d B budget, %d partitions, recursion depth %d)\n",
			memBudget, b.NPartitions, b.RecursionDepth)
		if b.SpilledPartitions > 0 {
			fmt.Printf("(spill: %d pair(s), %d B written, %d B read, stalls write %v read %v)\n",
				b.SpilledPartitions, b.SpillBytesWritten, b.SpillBytesRead,
				b.SpillWriteStall, b.SpillReadStall)
		}
		fmt.Printf("(hybrid: %d resident pair(s), %d spilled, %d demoted, %d B demoted)\n",
			b.ResidentPartitions, b.VictimPartitions, b.DemotedPartitions, b.BytesDemoted)
	}
	fmt.Printf("(speedup = first scheme's elapsed / scheme's elapsed; medians of %d interleaved reps; all results validated)\n", reps)
}

func secsMS(d time.Duration) float64 { return d.Seconds() * 1e3 }

// medianResult returns the run with the median Elapsed.
func medianResult(rs []native.Result) native.Result {
	sorted := make([]native.Result, len(rs))
	copy(sorted, rs)
	slices.SortFunc(sorted, func(a, b native.Result) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
	return sorted[len(sorted)/2]
}

func runOne(e exp.Experiment, sc exp.Scale, csv bool) {
	start := time.Now()
	exp.RunAndPrint(os.Stdout, e, sc, csv)
	fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
}
