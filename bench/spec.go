package main

import "runtime"

// Every constant a result depends on is frozen here and copied into
// the result file, so two result files are comparable exactly when
// their "constants" blocks are equal. Changing one is a benchmark
// change: its own PR, claiming no gain (choosing-metrics §6).

// parallelism is the worker count of in-process queries and the
// connection count of the open-loop generator.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// warmupQueries are run and discarded at the end of every set-up, so
// lazy initialisation, first-touch page faults and the first GC cycles
// are paid before the window opens.
const warmupQueries = 5

// setupRepeats is how many times one run performs the whole set-up.
// Each set-up is followed by 1/setupRepeats of the measurement window,
// and every end-to-end metric is the median over the set-ups.
const setupRepeats = 5

// e2eRuns is how many untraced runs of each workload a full run
// (`go run ./bench`) makes, round-robin over the workloads so one
// workload's runs are minutes apart: the host's CPU spends stretches of
// tens of seconds in a faster clock state (README, "Noise"), and the
// median over spaced runs is what two result files can be compared on.
const e2eRuns = 3

// inprocSpec describes one in-process workload: the generated input
// and the RunPipelineContext options it is joined under.
type inprocSpec struct {
	nBuild, nProbe int
	nHit           int // probe tuples that match a build key
	dupRun         int // copies of each distinct build key (1 = unique)
	tuple          int // bytes per tuple, both sides

	fanout int  // WithPipelineFanout
	agg    bool // WithAggregation on the join key
	budget int  // WithPipelineMemBudget, 0 = unbudgeted

	// sim: the traced pass also replays this shape at simulator scale
	// under the cycle simulator (replaySim).
	sim bool
}

func (s inprocSpec) tuples() int { return s.nBuild + s.nProbe }

// scale selects the input sizes: "full" is what BENCHMARK.json
// measures, "smoke" is the same shapes at sizes a unit test can run.
type scale struct {
	name   string
	inproc map[string]inprocSpec
	sim    simSpec
	serve  serveSpec
}

// spillBudget is spill_skew's WithPipelineMemBudget. Rows of one
// duplicated key share one hash code, which no radix pass can split;
// a run of 12 500 100-byte rows is ~1.4 MiB of row table against this
// 128 KiB, so every distinct key is an irreducible over-budget
// sub-pair. Eight long runs rather than fifty short ones: the tier
// opens two files per spilled pair, and at fifty pairs the time was
// ext4 create/unlink (and swung 60-120 ms with the journal's mood), not
// the tier's encode, write, read and verify.
const spillBudget = 128 << 10

var fullScale = scale{
	name: "full",
	inproc: map[string]inprocSpec{
		"inmem_probe": {nBuild: 200_000, nProbe: 400_000, nHit: 400_000, dupRun: 1, tuple: 100, fanout: 1, sim: true},
		"inmem_build": {nBuild: 400_000, nProbe: 40_000, nHit: 20_000, dupRun: 1, tuple: 100, fanout: 1},
		"part_agg":    {nBuild: 100_000, nProbe: 200_000, nHit: 200_000, dupRun: 1, tuple: 100, fanout: 64, agg: true},
		"spill_skew":  {nBuild: 100_000, nProbe: 100_000, nHit: 16, dupRun: 12_500, tuple: 100, fanout: 8, budget: spillBudget},
	},
	sim:   simSpec{nBuild: 3_000, nProbe: 6_000, tuple: 100},
	serve: fullServe,
}

var smokeScale = scale{
	name: "smoke",
	inproc: map[string]inprocSpec{
		"inmem_probe": {nBuild: 4_000, nProbe: 8_000, nHit: 8_000, dupRun: 1, tuple: 100, fanout: 1, sim: true},
		"inmem_build": {nBuild: 8_000, nProbe: 800, nHit: 400, dupRun: 1, tuple: 100, fanout: 1},
		"part_agg":    {nBuild: 2_000, nProbe: 4_000, nHit: 4_000, dupRun: 1, tuple: 100, fanout: 64, agg: true},
		"spill_skew":  {nBuild: 8_000, nProbe: 8_000, nHit: 8, dupRun: 2_000, tuple: 100, fanout: 8, budget: spillBudget},
	},
	sim:   simSpec{nBuild: 1_000, nProbe: 2_000, tuple: 100},
	serve: smokeServe,
}

func scaleByName(name string) (scale, bool) {
	switch name {
	case "full":
		return fullScale, true
	case "smoke":
		return smokeScale, true
	}
	return scale{}, false
}

// workloadNames is the run order of a full run and the set BENCHMARK.json
// must list.
var workloadNames = []string{
	"inmem_probe", "inmem_build", "part_agg", "spill_skew", "serve_mix",
}
