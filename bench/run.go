package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hashjoin"
)

// runConfig is what one invocation was asked to do.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	scale    scale
	spec     benchmarkSpec // BENCHMARK.json: the metrics each pass emits
	outDir   string        // bench/out: hjserve binary, spill dirs, traces, result files
}

// recorder accumulates the outcome of every query of one measurement
// window.
type recorder struct {
	latMs     []float64     // latency of each correct query
	tuples    int64         // input tuples those queries joined
	window    time.Duration // time the program under test was serving them
	ref       refClock      // the host yardstick, run between queries
	rssMiB    float64       // peak resident set seen during the window
	attempted int
	failed    int
	firstErr  error
}

func (r *recorder) ok(lat time.Duration, tuples int) {
	r.attempted++
	r.latMs = append(r.latMs, ms(lat))
	r.tuples += int64(tuples)
}

// fail counts a query that errored, was shed, or returned a result the
// reference disagrees with.
func (r *recorder) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// merge folds one set-up's window into the run's.
func (r *recorder) merge(o *recorder) {
	r.latMs = append(r.latMs, o.latMs...)
	r.ref.ms = append(r.ref.ms, o.ref.ms...)
	r.tuples += o.tuples
	r.window += o.window
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// sampleRSS folds this process's current resident set into the
// window's peak. In-process workloads call it after every query:
// whatever the query allocated is still resident then, collected or
// not.
func (r *recorder) sampleRSS() { r.rssMiB = max(r.rssMiB, currentRSSMiB()) }

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure serves queries for about d with tracing off.
	measure(d time.Duration, rec *recorder)
	// layers is the traced pass: traced queries for about d, then the
	// replays of the harness's calls into each layer. It fills out with
	// per-layer metrics.
	layers(d time.Duration, tr *tracer, rec *recorder, out *metricSet) error
	// close tears the instance down: Envs dropped, children stopped and
	// waited for.
	close()
}

// workloadDef binds a workload name to its set-up. prepare is one-off
// untimed work (compiling hjserve); it may be nil.
type workloadDef struct {
	prepare func(cfg runConfig) error
	// setup generates the inputs from cfg.seed and brings the workload
	// to a warmed-up state; rep numbers the set-ups within one run.
	setup func(cfg runConfig, rep int) (instance, error)
}

func workloadByName(name string) (workloadDef, bool) {
	switch name {
	case "inmem_probe", "inmem_build", "part_agg", "spill_skew":
		return workloadDef{setup: func(cfg runConfig, _ int) (instance, error) {
			return setupInproc(cfg.scale.inproc[name], cfg.scale.sim, cfg.seed, cfg.outDir)
		}}, true
	case "serve_mix":
		return workloadDef{prepare: buildServer, setup: func(cfg runConfig, rep int) (instance, error) {
			return setupServe(cfg, rep)
		}}, true
	}
	return workloadDef{}, false
}

// passResult is one pass's outcome, ready to print.
type passResult struct {
	rec     *recorder
	metrics *metricSet
	// asMeasured holds the untraced pass's timings before they are
	// quoted at the yardstick's nominal speed, and the yardstick's own
	// median: printed and kept in the detail file, never gated on.
	asMeasured map[string]float64
	summaries  map[string]summary
}

// runE2E is the untraced pass. The run sets the workload up
// setupRepeats times and measures an equal share of the window after
// each; between queries it runs the host yardstick (hostref.go). The
// timing metric is the median over every query of the run, quoted at
// the yardstick's nominal speed: the host's own speed swings by a half
// from minute to minute, the yardstick swings with it, and their ratio
// is what repeats (README, "Noise"). setup_s and peak_rss_mib are
// medians over the set-ups, as measured.
//
// There is no tail-latency or mean-throughput metric here on purpose:
// a closed-loop query that triggers a GC cycle is a second mode, p90
// sat on the boundary between the modes, the mean follows the share of
// queries in the slow mode, and neither repeated; the throughput is
// printed as measured and the tail shows in the traced pass.
func runE2E(def workloadDef, cfg runConfig) (passResult, error) {
	ref := newHostRef()
	total := &recorder{}
	var setups, rss []float64
	for rep := 0; rep < setupRepeats; rep++ {
		start := time.Now()
		inst, err := def.setup(cfg, rep)
		if err != nil {
			return passResult{}, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		rec := &recorder{ref: refClock{h: ref}}
		inst.measure(cfg.seconds/setupRepeats, rec)
		inst.close()
		if len(rec.latMs) == 0 {
			return passResult{}, fmt.Errorf("set-up %d: no query completed correctly (first failure: %v)", rep, rec.firstErr)
		}
		total.merge(rec)
		rss = append(rss, rec.rssMiB)
	}
	queryMs, refMs := median(total.latMs), median(total.ref.ms)
	rate := float64(total.tuples) / total.window.Seconds() / 1e6
	out := newMetricSet(cfg.spec.EndToEnd)
	out.set("setup_s", median(setups))
	out.set("norm_query_ms_p50", queryMs*refNominalMs/refMs)
	out.set("peak_rss_mib", median(rss))
	return passResult{rec: total, metrics: out,
		asMeasured: map[string]float64{"query_ms_p50": queryMs, "mtuples_per_s": rate, "host_ref_ms_p50": refMs},
		summaries: map[string]summary{
			"query_ms":     summarize(total.latMs),
			"host_ref_ms":  summarize(total.ref.ms),
			"setup_s":      summarize(setups),
			"peak_rss_mib": summarize(rss),
		}}, nil
}

// runTrace is the traced pass: one set-up, traced queries, layer
// replays. Its timings never feed an end-to-end metric.
func runTrace(def workloadDef, cfg runConfig) (passResult, error) {
	inst, err := def.setup(cfg, 0)
	if err != nil {
		return passResult{}, fmt.Errorf("set-up: %w", err)
	}
	rec := &recorder{ref: refClock{h: newHostRef()}}
	tr := newTracer()
	out := newMetricSet(cfg.spec.PerLayer)
	err = inst.layers(cfg.seconds, tr, rec, out)
	inst.close()
	if err != nil {
		return passResult{}, err
	}
	out.set("bench.samples", float64(len(rec.latMs)))
	// What the host was like while the spans were taken: per-layer
	// timings are as measured, not quoted at the yardstick's nominal.
	rec.ref.tick()
	out.set("bench.host_ref_ms_p50", median(rec.ref.ms))
	if werr := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); werr != nil {
		return passResult{}, fmt.Errorf("write trace: %w", werr)
	}
	return passResult{rec: rec, metrics: out, summaries: map[string]summary{
		"traced_query_ms": summarize(rec.latMs),
	}}, nil
}

// measure runs the workload's pipeline in a closed loop — one client,
// the next query issued when the previous returns — until d has
// passed.
func (w *inproc) measure(d time.Duration, rec *recorder) {
	start := time.Now()
	for time.Since(start) < d {
		lat, _, err := w.query(context.Background())
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok(lat, w.spec.tuples())
		rec.window += lat
		rec.sampleRSS()
		rec.ref.tick()
	}
}

// layers alternates untraced and traced pipeline queries (so drift
// lands on both alike and their ratio is the tracing overhead), then
// replays the layers below the root package on a second copy of the
// input.
func (w *inproc) layers(d time.Duration, tr *tracer, rec *recorder, out *metricSet) error {
	ctx := context.Background()
	tuples := float64(w.spec.tuples())

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	faults0 := minorFaults()
	var plain []float64
	start := time.Now()
	for q := 0; time.Since(start) < d/2 || q < 4; q++ {
		lat, _, err := w.query(ctx)
		if err != nil {
			rec.fail(err)
			continue
		}
		plain = append(plain, ms(lat))

		_, end := tr.begin("hashjoin.pipeline", -1, q)
		lat, _, err = w.query(ctx)
		end()
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok(lat, w.spec.tuples())
		rec.ref.tick()
	}
	if len(rec.latMs) == 0 {
		return fmt.Errorf("no traced query completed correctly (first failure: %v)", rec.firstErr)
	}
	runtime.ReadMemStats(&ms1)
	queries := float64(len(plain) + len(rec.latMs))
	out.set("hashjoin.heap_alloc_mib_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/queries)
	out.set("hashjoin.gc_cycles_per_query", float64(ms1.NumGC-ms0.NumGC)/queries)
	out.set("hashjoin.minor_faults_per_query", float64(minorFaults()-faults0)/queries)

	queryMs := median(rec.latMs)
	out.set("bench.traced_query_ms_p50", queryMs)
	out.set("bench.traced_query_ms_p90", quantileOf(rec.latMs, 0.9))
	out.set("bench.trace_overhead_frac", queryMs/median(plain)-1)
	out.set("hashjoin.pipeline_ns_per_tuple", queryMs*1e6/tuples)

	if w.spec.fanout <= 1 {
		for r := 0; r < layerReps; r++ {
			_, end := tr.begin("hashjoin.prepare_buildside", -1, 5_000_000+r)
			_, err := w.env.PrepareBuildSide(ctx, w.build, hashjoin.WithPipelineWorkers(parallelism()))
			end()
			if err != nil {
				return fmt.Errorf("PrepareBuildSide: %w", err)
			}
		}
		out.set("hashjoin.prepare_buildside_ms", median(tr.ms("hashjoin.prepare_buildside")))
	}

	if w.spec.budget > 0 {
		// The hybrid policy is off in the measured queries (it is off by
		// default in hjserve too); ten traced queries with it on give
		// hybrid-vs-plain a number without making the end-to-end sample
		// bimodal.
		var last hashjoin.PipelineResult
		for r := 0; r < 10; r++ {
			_, end := tr.begin("hashjoin.pipeline_hybrid", -1, 6_000_000+r)
			_, res, err := w.query(ctx, hashjoin.WithPipelineHybrid())
			end()
			if err != nil {
				return fmt.Errorf("hybrid query: %w", err)
			}
			last = res
		}
		out.set("spill.hybrid_ms_p50", median(tr.ms("hashjoin.pipeline_hybrid")))
		out.set("native.resident_pairs", float64(last.ResidentPartitions))
		out.set("native.demoted_pairs", float64(last.DemotedPartitions))
	}

	lr := loadLayerRels(w.in, envCapacity(w.spec))
	lj := layerJoin{
		fanout: w.spec.fanout, budget: w.spec.budget, workers: parallelism(),
		agg: w.spec.agg, groups: len(w.want.groups), spillDir: w.spillDir,
	}
	if err := replayNative(lr, lj, w.want, tr, out, queryMs); err != nil {
		return err
	}
	out.set("hashjoin.overhead_ns_per_tuple", queryMs*1e6/tuples-out.get("engine.run_ns_per_tuple"))
	if w.spec.sim {
		if err := replaySim(w.sim, w.seed, tr, out); err != nil {
			return err
		}
	}
	return replayFixedCosts(lr, tr, out)
}
