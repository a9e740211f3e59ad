// Command hjquery generates a synthetic workload and runs the paper's
// full query pipeline — Scan -> HashJoin -> HashAggregate — through the
// batch-oriented operator engine. The -engine flag selects the backend
// for the SAME logical plan: the cycle-level simulator (default), which
// reports a simulated cycle breakdown, or the native engine, which runs
// the pipeline on the host hardware — prefetched join feeding prefetched
// aggregation — and reports wall-clock time. Both engines print
// identical result and group lines for the same workload.
//
// Usage:
//
//	hjquery -build 100000 -tuple 100 -matches 2 -mem 6553600 \
//	        -scheme plan -catalog out.json
//	hjquery -engine native -build 500000 -scheme pipelined -fanout 64
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hashjoin/internal/catalog"
	"hashjoin/internal/cli"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/memsim"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/workload"
)

const prog = "hjquery"

func main() {
	var (
		engineArg = flag.String("engine", "sim", "execution engine: sim or native")
		nBuild    = flag.Int("build", 50000, "build relation tuple count")
		tupleSize = flag.Int("tuple", 100, "tuple size in bytes")
		matches   = flag.Int("matches", 2, "probe tuples per build tuple")
		pct       = flag.Int("pct", 100, "percent of build tuples with matches")
		skew      = flag.Int("skew", 0, "repeat each build key this many times (0/1 = unique keys); high skew defeats partitioning and exercises the spill tier")
		mem       = flag.Int("mem", 6400<<10, "join memory budget in bytes (planner input)")
		schemeArg = flag.String("scheme", "plan", "baseline, simple, group, pipelined, or plan (use planner)")
		hierArg   = flag.String("hier", "small", "memory hierarchy: small or es40 (sim engine)")
		workers   = flag.Int("workers", 0, "native engine: morsel workers (0 = all CPUs)")
		fanout    = flag.Int("fanout", 1, "native engine: partition fan-out (1 = stream through one table)")
		memBudget = flag.Int("mem-budget", 0, "native engine: resident build-side budget in bytes (0 = unbudgeted); a streaming join over budget degrades to partitioned; an oversized pair spills its irreducible hot keys to disk and re-partitions the rest")
		spillDir  = flag.String("spill-dir", "", "native engine: parent directory for the out-of-core spill area (default: OS temp dir)")
		spillWork = flag.Int("spill-workers", 0, "native engine: write-behind workers for the spill tier (0 = default)")
		noSpill   = flag.Bool("no-spill", false, "native engine: disable the spill tier; an irreducible over-budget pair fails instead")
		joinType  = flag.String("join-type", "inner", "join semantics: inner, left-outer, right-outer, semi, or anti")
		strat     = flag.String("strategy", "auto", "join strategy: auto (cost-based planner), stream, or partitioned")
		explain   = flag.Bool("explain", false, "print the planner's strategy decision and its inputs")
		matchRate = flag.Float64("match-rate", 0, "fraction of probe tuples with a build match in (0, 1]; overrides -matches/-pct workload shaping")
		aggOff    = flag.Int("agg", 0, "aggregate value byte offset within the join output row (0 = default 4)")
		zipfS     = flag.Float64("zipf", 0, "Zipf skew parameter s for build keys (0 = uniform keys); probe keys stay uniform over the same universe")
		zipfKeys  = flag.Int("zipf-keys", 0, "distinct-key universe for -zipf (0 = default 256)")
		catPath   = flag.String("catalog", "", "write the catalog description file here")
		seed      = flag.Int64("seed", 1, "workload seed")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit); a timed-out run exits with code 4")
	)
	flag.Parse()

	// Validate enumerated flags up front: an unknown value must fail
	// loudly with the accepted list, never fall through to a default.
	backend, err := cli.ParseEngine(*engineArg)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	hier, err := cli.ParseHierarchy(*hierArg)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	scheme, usePlan, err := cli.ParsePlanScheme(*schemeArg)
	if err != nil {
		cli.Fatalf(prog, "%v", err)
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

	p := &cli.Pipeline{
		Engine: backend,
		Spec: workload.Spec{
			NBuild:          *nBuild,
			TupleSize:       *tupleSize,
			MatchesPerBuild: *matches,
			PctMatched:      *pct,
			Skew:            *skew,
			ZipfS:           *zipfS,
			ZipfKeys:        *zipfKeys,
			MatchRate:       *matchRate,
			Seed:            *seed,
		},
		Hier:         hier,
		Fanout:       cli.NormalizeFanout(*fanout),
		Workers:      *workers,
		MemBudget:    *memBudget,
		SpillDir:     *spillDir,
		SpillWorkers: *spillWork,
		NoSpill:      *noSpill,
		JoinType:     jt,
		Strategy:     strategy,
		Explain:      *explain,
		AggValueOff:  *aggOff,
	}
	if err := p.Validate(); err != nil {
		cli.Fatalf(prog, "%v", err)
	}
	if *spillWork < 0 {
		cli.Fatalf(prog, "negative -spill-workers %d", *spillWork)
	}
	if *timeout < 0 {
		cli.Fatalf(prog, "negative -timeout %v", *timeout)
	}
	p.Materialize()
	if *timeout > 0 {
		// The deadline starts after workload generation: a slow generator
		// should not eat the query's time box.
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		p.Ctx = ctx
	}

	desc := catalog.Describe("build", p.Pair.Build)
	if *catPath != "" {
		cat := catalog.New()
		cat.Put(desc)
		cat.Put(catalog.Describe("probe", p.Pair.Probe))
		f, err := os.Create(*catPath)
		if err != nil {
			cli.Dief(prog, "%v", err)
		}
		if err := cat.Save(f); err != nil {
			cli.Dief(prog, "%v", err)
		}
		f.Close()
		fmt.Printf("catalog written to %s\n", *catPath)
	}

	p.Scheme, p.Params = scheme, core.DefaultParams()
	if usePlan {
		// The planner targets the simulator's cost model; the native
		// engine reuses its scheme choice with the native default G/D.
		gp := catalog.PlanGrace(desc, *mem, hier)
		p.Scheme = gp.JoinScheme
		p.Params = gp.Params
		if backend == engine.Native {
			p.Params = core.Params{}
		}
		fmt.Printf("plan: scheme=%v G=%d D=%d (catalog planner)\n",
			p.Scheme, gp.Params.G, gp.Params.D)
	}

	res, err := p.Run()
	if err != nil {
		cli.DiePipeline(prog, err)
	}
	if res.Plan != nil {
		fmt.Printf("strategy: %s\n", res.Plan.Explain())
	}

	// These two lines are engine-independent: same workload, same plan,
	// same logical result on either backend.
	fmt.Printf("result: %d output tuples (validated)\n", res.NOutput)
	fmt.Printf("groups: %d groups, keysum %d\n", len(res.Groups), res.KeySum)

	switch backend {
	case engine.Sim:
		printPhase("pipeline", res.Stats)
		fmt.Printf("total: %.2f Mcycles\n", float64(res.Stats.Total())/1e6)
	case engine.Native:
		rate := float64(p.Pair.Probe.NTuples) / res.Elapsed.Seconds() / 1e6
		fmt.Printf("native: scheme %v, fanout %d, prefetch asm %v\n",
			engine.NativeScheme(p.Scheme), res.JoinFanout, native.HavePrefetch)
		if *memBudget > 0 {
			fmt.Printf("budget: %d B, recursion depth %d\n", *memBudget, res.JoinRecursionDepth)
			fmt.Printf("hybrid: %d resident pair(s), %d demoted, %d B demoted\n",
				res.ResidentPartitions, res.DemotedPartitions, res.BytesDemoted)
		}
		if res.SpilledPartitions > 0 {
			fmt.Printf("spill: %d partition pair(s), %d B written, %d B read, stalls write %v read %v\n",
				res.SpilledPartitions, res.SpillBytesWritten, res.SpillBytesRead,
				res.SpillWriteStall, res.SpillReadStall)
			if res.SpillFailovers > 0 || res.SpillRebuilds > 0 {
				fmt.Printf("spill recovery: %d dir failover(s), %d partition rebuild(s)\n",
					res.SpillFailovers, res.SpillRebuilds)
			}
		}
		fmt.Printf("total: %.2f ms  (%.1f Mprobe tuples/s)\n",
			res.Elapsed.Seconds()*1e3, rate)
	}
}

func printPhase(name string, s memsim.Stats) {
	total := float64(s.Total())
	fmt.Printf("%-10s %10.2f Mcycles  busy %4.0f%%  dcache %4.0f%%  dtlb %4.0f%%  other %4.0f%%\n",
		name, total/1e6,
		100*float64(s.Busy)/total, 100*float64(s.DCacheStall)/total,
		100*float64(s.TLBStall)/total, 100*float64(s.OtherStall)/total)
}
