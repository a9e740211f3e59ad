package main

import (
	"context"
	"encoding/binary"
	"fmt"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/hash"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/sched"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
)

// layerReps is how many times each layer call is replayed and timed;
// metrics are medians over the replays. One more replay runs first,
// unrecorded (rep -1), so first-touch faults of the replay arena's
// scratch are in no span.
const layerReps = 5

// recording returns tr for a timed rep and nil — which records nothing
// — for the warm-up rep.
func recording(tr *tracer, rep int) *tracer {
	if rep < 0 {
		return nil
	}
	return tr
}

// layerRels is a workload's input loaded a second time, as
// internal/storage relations in a private arena: the root package
// hides its relations' storage, and the layers below it (engine,
// native, spill) take storage relations directly. Same keys, same
// payloads, same order as the Env's copy.
type layerRels struct {
	a            *arena.Arena
	build, probe *storage.Relation
	width        int
}

func loadLayerRels(in input, capacity uint64) *layerRels {
	a := arena.New(capacity)
	schema := storage.KeyPayloadSchema(in.tuple)
	load := func(keys []uint32, value func(int) uint32) *storage.Relation {
		rel := storage.NewRelation(a, schema, 8<<10)
		tup := make([]byte, in.tuple)
		for i, k := range keys {
			binary.LittleEndian.PutUint32(tup, k)
			fillPayload(tup[4:], value(i))
			rel.Append(tup, hash.CodeU32(k))
		}
		return rel
	}
	return &layerRels{a: a, build: load(in.build, buildValue), probe: load(in.probe, probeValue), width: in.tuple}
}

// layerJoin is how the layers below the root package are driven for
// one workload: the same strategy knobs its pipeline queries use.
type layerJoin struct {
	fanout, budget, workers int
	agg                     bool
	groups                  int
	spillDir                string
}

// replayNative times the harness's calls into native, engine, and —
// when the workload spills — spill, on the workload's own input, and
// checks every replayed join against the reference. queryMs is the
// traced pipeline p50 the shares are taken against.
func replayNative(lr *layerRels, lj layerJoin, want expect, tr *tracer, out *metricSet, queryMs float64) error {
	tuples := float64(lr.build.NTuples + lr.probe.NTuples)
	data := lr.a.Data()
	query := 1_000_000 // replay spans sit apart from the query ids
	root := func(rep int, name string) (int, func()) {
		query++
		return recording(tr, rep).begin(name, -1, query)
	}

	// native.Flatten, build side then probe side.
	var be, pe []native.Entry
	for r := -1; r < layerReps; r++ {
		_, end := root(r, "native.flatten")
		be = native.Flatten(lr.build, be[:0])
		pe = native.Flatten(lr.probe, pe[:0])
		end()
	}
	out.set("native.flatten_ns_per_tuple", median(tr.ms("native.flatten"))*1e6/tuples)

	// The streaming join's two halves, as internal/engine calls them:
	// NewProber serializes and inserts the build side on the calling
	// goroutine, ProbeBatch probes one G-sized batch.
	matches := 0
	count := func([]byte, uint64) { matches++ }
	for r := -1; r < layerReps; r++ {
		_, end := root(r, "native.build")
		p := native.NewProber(data, be, lr.width, native.Group, 0, 0)
		end()
		matches = 0
		g := p.G()
		_, end = root(r, "native.probe")
		for lo := 0; lo < len(pe); lo += g {
			p.ProbeBatch(pe[lo:min(lo+g, len(pe))], count)
		}
		end()
		if matches != want.rows || p.KeySum() != want.keysum {
			return fmt.Errorf("native.Prober: (rows, keysum) = (%d, %d), reference (%d, %d)", matches, p.KeySum(), want.rows, want.keysum)
		}
	}
	buildMs, probeMs := median(tr.ms("native.build")), median(tr.ms("native.probe"))
	out.set("native.build_ns_per_row", buildMs*1e6/float64(lr.build.NTuples))
	out.set("native.probe_ns_per_tuple", probeMs*1e6/float64(lr.probe.NTuples))
	out.set("native.build_share", safeDiv(buildMs, queryMs))
	out.set("native.probe_share", safeDiv(probeMs, queryMs))

	// The raw joiner, under the workload's strategy: baseline for the
	// speed-up's base, then group — the scheme the queries run.
	jn := native.NewJoiner()
	var last native.Result
	var partMs, pairMs []float64
	for _, scheme := range []native.Scheme{native.Baseline, native.Group} {
		name := "native.join_baseline"
		if scheme == native.Group {
			name = "native.join"
		}
		cfg := native.Config{
			Scheme: scheme, Fanout: lj.fanout, MemBudget: lj.budget, Workers: lj.workers,
			SpillDir: lj.spillDir, Arena: lr.a,
		}
		for r := -1; r < layerReps; r++ {
			scope := lr.a.Scope()
			_, end := root(r, name)
			res, err := jn.Join(lr.build, lr.probe, cfg)
			end()
			scope.Release()
			if err != nil {
				return fmt.Errorf("native.Joiner: %w", err)
			}
			if res.NOutput != want.rows || res.KeySum != want.keysum {
				return fmt.Errorf("native.Joiner: (rows, keysum) = (%d, %d), reference (%d, %d)", res.NOutput, res.KeySum, want.rows, want.keysum)
			}
			if scheme == native.Group && r >= 0 {
				last = res
				partMs = append(partMs, ms(res.PartitionTime))
				pairMs = append(pairMs, ms(res.JoinTime))
			}
		}
	}
	joinMs := median(tr.ms("native.join"))
	out.set("native.join_ns_per_tuple", joinMs*1e6/tuples)
	out.set("native.group_speedup", safeDiv(median(tr.ms("native.join_baseline")), joinMs))
	out.set("native.partition_ms", median(partMs))
	out.set("native.pair_join_ms", median(pairMs))
	out.set("native.recursion_depth", float64(last.RecursionDepth))
	out.set("native.spilled_pairs", float64(last.SpilledPartitions))
	buildBytes := float64(lr.build.NTuples * lr.width)
	out.set("spill.bytes_written_per_build_byte", float64(last.SpillBytesWritten)/buildBytes)
	out.set("spill.read_amp", safeDiv(float64(last.SpillBytesRead), float64(last.SpillBytesWritten)))
	out.set("spill.write_stall_ms", ms(last.SpillWriteStall))
	out.set("spill.read_stall_ms", ms(last.SpillReadStall))

	// The same join compiled as an operator pipeline.
	logical := engine.HashJoin(engine.Scan(lr.build), engine.Scan(lr.probe))
	if lj.agg {
		logical = engine.HashAggregate(logical, 4, lj.groups)
	}
	ecfg := engine.Config{
		Backend: engine.Native, A: lr.a, Scheme: core.SchemeGroup,
		Fanout: lj.fanout, Workers: lj.workers, MemBudget: lj.budget, SpillDir: lj.spillDir,
		Ctx: context.Background(),
	}
	for r := -1; r < layerReps; r++ {
		id, endQuery := root(r, "engine.query")
		_, end := recording(tr, r).begin("engine.compile", id, query)
		op, err := engine.Compile(logical, ecfg)
		end()
		if err != nil {
			return fmt.Errorf("engine.Compile: %w", err)
		}
		_, end = recording(tr, r).begin("engine.run", id, query)
		var rows int
		var keysum uint64
		if lj.agg {
			groups, gerr := engine.Groups(op, lr.a)
			err = gerr
			for _, g := range groups {
				rows += int(g.Count)
				keysum += uint64(g.Key) * g.Count
			}
		} else {
			res, rerr := engine.Run(op, lr.a)
			err, rows, keysum = rerr, res.NRows, res.KeySum
		}
		end()
		endQuery()
		if err != nil {
			return fmt.Errorf("engine.Run: %w", err)
		}
		if rows != want.rows || keysum != want.keysum {
			return fmt.Errorf("engine.Run: (rows, keysum) = (%d, %d), reference (%d, %d)", rows, keysum, want.rows, want.keysum)
		}
	}
	runMs := median(tr.ms("engine.run"))
	out.set("engine.compile_us", median(tr.ms("engine.compile"))*1e3)
	out.set("engine.run_ns_per_tuple", runMs*1e6/tuples)
	out.set("engine.overhead_ns_per_tuple", (runMs-joinMs)*1e6/tuples)
	out.set("engine.overhead_share", safeDiv(runMs-joinMs, runMs))

	if lj.agg {
		replayAgg(lr, want, tr, out)
	}
	if last.SpilledPartitions > 0 {
		if err := replaySpill(lr, lj.spillDir, tr, out, queryMs); err != nil {
			return err
		}
	}
	return nil
}

// replayAgg feeds the join's output keys — one AggInput per output row,
// in reference group order — through native.AggTable.UpsertBatch in
// G-sized batches, as the engine's HashAggregate does.
func replayAgg(lr *layerRels, want expect, tr *tracer, out *metricSet) {
	rows := make([]native.AggInput, 0, want.rows)
	for _, g := range want.groups {
		for c := uint64(0); c < g.count; c++ {
			rows = append(rows, native.AggInput{Code: hash.CodeU32(g.key), Key: g.key, Value: 1})
		}
	}
	t := native.NewAggTable(len(want.groups))
	for r := -1; r < layerReps; r++ {
		t.Reset(len(want.groups))
		_, end := recording(tr, r).begin("native.agg", -1, 2_000_000+r)
		for lo := 0; lo < len(rows); lo += native.DefaultG {
			t.UpsertBatch(rows[lo:min(lo+native.DefaultG, len(rows))], native.Group, native.DefaultG)
		}
		end()
	}
	out.set("native.agg_ns_per_row", median(tr.ms("native.agg"))*1e6/float64(len(rows)))
}

// replaySpill writes the build relation through a spill.Writer and
// reads it back through a spill.Reader (integrity check included):
// the tier's encode+write and read+verify cost at about the volume the
// workload spills, with no join around it.
func replaySpill(lr *layerRels, dir string, tr *tracer, out *metricSet, queryMs float64) error {
	for r := -1; r < layerReps; r++ {
		err := func() error {
			scope := lr.a.Scope()
			defer scope.Release()
			m, err := spill.NewManager(spill.Config{Dir: dir, A: lr.a})
			if err != nil {
				return err
			}
			defer m.Close()
			w, err := m.NewWriter()
			if err != nil {
				return err
			}
			_, end := recording(tr, r).begin("spill.write", -1, 3_000_000+r)
			lr.build.Each(func(t []byte, code uint32) {
				if err == nil {
					err = w.Append(t, code)
				}
			})
			if err == nil {
				err = w.Finish()
			}
			end()
			if err != nil {
				return err
			}
			_, end = recording(tr, r).begin("spill.read", -1, 3_000_000+r)
			rd := w.OpenReader()
			n := 0
			for {
				pg, ok, rerr := rd.Next()
				if rerr != nil || !ok {
					err = rerr
					break
				}
				n += pg.NTuples()
				m.Release(pg)
			}
			rd.Close()
			end()
			if err == nil && n != lr.build.NTuples {
				err = fmt.Errorf("read back %d tuples of %d", n, lr.build.NTuples)
			}
			return err
		}()
		if err != nil {
			return fmt.Errorf("spill replay: %w", err)
		}
	}
	wr, rd := median(tr.ms("spill.write")), median(tr.ms("spill.read"))
	n := float64(lr.build.NTuples)
	out.set("spill.write_ns_per_tuple", wr*1e6/n)
	out.set("spill.read_ns_per_tuple", rd*1e6/n)
	out.set("spill.io_share", safeDiv(wr+rd, queryMs))
	return nil
}

// replayFixedCosts times the per-query fixed costs a small query pays
// before any tuple moves: the planner, arena scoping and carving,
// uncontended admission, and an empty trip through the morsel pool.
// They do not depend on the workload's data, only on its plan shape, so
// they run on a small arena of their own.
func replayFixedCosts(lr *layerRels, tr *tracer, out *metricSet) error {
	const n = 2000
	a := arena.New(64 << 20)
	per := func(name string, body func()) float64 {
		_, end := tr.begin(name, -1, 4_000_000)
		for i := 0; i < n; i++ {
			body()
		}
		end()
		xs := tr.ms(name)
		return xs[len(xs)-1] * 1e6 / n // ns per iteration
	}

	st := plan.Stats{
		BuildRows: lr.build.NTuples, ProbeRows: lr.probe.NTuples,
		BuildWidth: lr.width, ProbeWidth: lr.width,
		BuildFootprint: native.BuildFootprint(lr.build.NTuples, lr.width),
	}
	var dec plan.Decision
	out.set("plan.choose_ns", per("plan.choose", func() { dec = plan.Choose(st, plan.Inner, 0) }))
	_ = dec

	var allocErr error
	out.set("arena.scope_cycle_ns", per("arena.scope_cycle", func() {
		s := a.Scope()
		if _, err := a.TryAlloc(4096, 8); err != nil {
			allocErr = err
		}
		s.Release()
	}))
	if allocErr != nil {
		return fmt.Errorf("arena.TryAlloc: %w", allocErr)
	}
	mark := a.Used()
	out.set("arena.carve_ns", per("arena.carve", func() {
		if _, err := a.Carve(256<<10, 4096); err != nil {
			allocErr = err
		}
		a.Truncate(mark)
	}))
	if allocErr != nil {
		return fmt.Errorf("arena.Carve: %w", allocErr)
	}

	ctl := sched.NewController(sched.Config{Arena: a, Workers: parallelism()})
	defer ctl.Close()
	var admitErr error
	admit := per("sched.admit_release", func() {
		g, err := ctl.Admit(context.Background(), sched.Request{Tenant: "bench", Planned: 256 << 10})
		if err != nil {
			admitErr = err
			return
		}
		g.Release(nil)
	})
	if admitErr != nil {
		return fmt.Errorf("sched.Admit: %w", admitErr)
	}
	out.set("sched.admit_release_us", admit/1e3)

	job := &native.MorselJob{Tenant: "bench", N: 64, Slots: parallelism(), Run: func(int, int) error { return nil }}
	var poolErr error
	pool := per("sched.pool_do", func() {
		if err := ctl.Pool().Do(job); err != nil {
			poolErr = err
		}
	})
	if poolErr != nil {
		return fmt.Errorf("sched.Pool.Do: %w", poolErr)
	}
	out.set("sched.pool_morsel_us", pool/1e3/float64(job.N))
	return nil
}
