package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"hashjoin"
)

// inproc is one set-up in-process workload: a fitted Env holding the
// two relations, the options every query runs under, and the reference
// result every query is checked against.
type inproc struct {
	spec     inprocSpec
	sim      simSpec // what the traced pass replays under the simulator, if spec.sim
	seed     int64
	in       input
	env      *hashjoin.Env
	build    *hashjoin.Relation
	probe    *hashjoin.Relation
	opts     []hashjoin.PipelineOption
	want     expect
	spillDir string // "" unless the workload is budgeted
}

// relationBytes over-approximates the slotted-page footprint of n
// tuples: payload plus the 8-byte slot, plus page-header slack.
func relationBytes(n, tuple int) uint64 {
	return uint64(n) * uint64(tuple+8) * 11 / 10
}

// envCapacity fits the Env to the workload the way cli.Materialize
// does — relations plus the scratch one run scopes and releases — and
// not to a blanket multi-GiB capacity. The arena is a Go-heap slice, so
// its size sets the GC pacer's goal: under a 2 GiB arena the collector
// never runs during a benchmark, every query's garbage lands on fresh
// pages, and latency turns bimodal (see README, "Arena sizing").
func envCapacity(s inprocSpec) uint64 {
	scratch := uint64(8 << 20) // output ring, morsel pipe buffers, rounding
	if s.agg {
		scratch += uint64(s.nBuild) * 24 // engine.AggTupleWidth rows staged per group
	}
	if s.budget > 0 {
		scratch += 16 << 20 // spill page pool: ≤ (256+3·workers+4) × 32 KiB pages
	}
	return relationBytes(s.nBuild, s.tuple) + relationBytes(s.nProbe, s.tuple) + scratch
}

// loadRelation appends keys[i] with a payload whose first word is
// value(i) into a new relation of env.
func loadRelation(env *hashjoin.Env, tuple int, keys []uint32, value func(i int) uint32) *hashjoin.Relation {
	rel := env.NewRelation(tuple)
	payload := make([]byte, tuple-4)
	for i, k := range keys {
		fillPayload(payload, value(i))
		rel.Append(k, payload)
	}
	return rel
}

// fillPayload repeats v's four little-endian bytes across p.
func fillPayload(p []byte, v uint32) {
	for i := range p {
		p[i] = byte(v >> (8 * (uint(i) % 4)))
	}
}

// probeValue is the first payload word of probe tuple i. No query sums
// it; it only keeps probe payloads from being all-zero pages.
func probeValue(i int) uint32 { return uint32(i) | 0x80000000 }

// setupInproc generates the input, loads it into a fresh fitted Env,
// computes the reference result and runs the warm-up queries. outDir
// hosts the spill directory of a budgeted workload.
func setupInproc(s inprocSpec, sim simSpec, seed int64, outDir string) (*inproc, error) {
	w := &inproc{spec: s, sim: sim, seed: seed, in: genInput(s, seed)}
	w.env = hashjoin.NewEnv(hashjoin.WithSmallHierarchy(), hashjoin.WithCapacity(envCapacity(s)))
	w.build = loadRelation(w.env, s.tuple, w.in.build, buildValue)
	w.probe = loadRelation(w.env, s.tuple, w.in.probe, probeValue)
	w.want = reference(w.in, s.agg)

	w.opts = []hashjoin.PipelineOption{
		hashjoin.WithEngine(hashjoin.EngineNative),
		hashjoin.WithPipelineScheme(hashjoin.Group),
		hashjoin.WithPipelineFanout(s.fanout),
		hashjoin.WithPipelineWorkers(parallelism()),
	}
	if s.agg {
		w.opts = append(w.opts, hashjoin.WithAggregation(4, len(w.want.groups)))
	}
	if s.budget > 0 {
		dir, err := os.MkdirTemp(outDir, "spill-")
		if err != nil {
			return nil, fmt.Errorf("spill dir: %w", err)
		}
		w.spillDir = dir
		w.opts = append(w.opts, hashjoin.WithPipelineMemBudget(s.budget), hashjoin.WithPipelineSpillDir(dir))
	}
	for i := 0; i < warmupQueries; i++ {
		if _, _, err := w.query(context.Background()); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return w, nil
}

// close drops the Env and the spill directory and returns the arena's
// pages to the OS, so a following set-up in the same process neither
// inherits a warm heap nor stacks a second arena on its resident set.
func (w *inproc) close() {
	if w.spillDir != "" {
		os.RemoveAll(w.spillDir)
	}
	w.env, w.build, w.probe = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

// query runs the workload's pipeline once, timing it as a library
// caller would (around RunPipelineContext), and checks the result
// against the reference. A wrong result is returned as an error.
func (w *inproc) query(ctx context.Context, extra ...hashjoin.PipelineOption) (time.Duration, hashjoin.PipelineResult, error) {
	opts := w.opts
	if len(extra) > 0 {
		opts = append(append([]hashjoin.PipelineOption(nil), w.opts...), extra...)
	}
	start := time.Now()
	res, err := w.env.RunPipelineContext(ctx, w.build, w.probe, opts...)
	d := time.Since(start)
	if err != nil {
		return d, res, err
	}
	return d, res, checkResult(res, w.want, w.spec.agg)
}

// checkResult compares one pipeline result with the reference: row
// count, checksum, and — when aggregating — every group.
func checkResult(res hashjoin.PipelineResult, want expect, agg bool) error {
	if res.NOutput != want.rows || res.KeySum != want.keysum {
		return fmt.Errorf("wrong result: (rows, keysum) = (%d, %d), reference (%d, %d)",
			res.NOutput, res.KeySum, want.rows, want.keysum)
	}
	if !agg {
		return nil
	}
	if len(res.Groups) != len(want.groups) {
		return fmt.Errorf("wrong result: %d groups, reference %d", len(res.Groups), len(want.groups))
	}
	for i, g := range res.Groups {
		if want := want.groups[i]; g.Key != want.key || g.Count != want.count || g.Sum != want.sum {
			return fmt.Errorf("wrong result: group %d = %+v, reference %+v", i, g, want)
		}
	}
	return nil
}
