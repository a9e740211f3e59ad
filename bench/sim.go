package main

import (
	"fmt"
	"time"

	"hashjoin"
)

// simSpec sizes the cycle-simulator replay of the traced pass: unique
// build keys, two probe tuples per build key, small simulated
// hierarchy (128 KB L2), so the build side is several times the
// simulated cache as in the paper's join-phase experiments.
type simSpec struct{ nBuild, nProbe, tuple int }

var simSchemes = []struct {
	name   string
	scheme hashjoin.Scheme
}{
	{"baseline", hashjoin.Baseline},
	{"group", hashjoin.Group},
	{"pipelined", hashjoin.Pipelined},
}

// replaySim is the reproduction's guard: the streaming join's shape at
// simulator scale, run once from a fresh Env under the cycle simulator
// — Env.Join under each scheme, then one aggregating
// RunPipeline(EngineSim) — every result checked against the reference.
// The simulator's caches carry state from run to run, so only this
// first round has cycle counts that repeat exactly; a refactor must
// leave them identical on the same seed. It was a workload of its own
// until its host time, an integer-bound 125 ms that follows the host's
// two clock states, proved unable to hold a bound; the exact counts
// are what guards the reproduction and they need no window.
func replaySim(s simSpec, seed int64, tr *tracer, out *metricSet) error {
	in := genInput(inprocSpec{nBuild: s.nBuild, nProbe: s.nProbe, nHit: s.nProbe, dupRun: 1, tuple: s.tuple}, seed)
	want := reference(in, true)
	// Relations, plus the hash table and output of one simulated join.
	capacity := 3*(relationBytes(s.nBuild, s.tuple)+relationBytes(s.nProbe, s.tuple)) + (16 << 20)
	env := hashjoin.NewEnv(hashjoin.WithSmallHierarchy(), hashjoin.WithCapacity(capacity))
	build := loadRelation(env, s.tuple, in.build, buildValue)
	probe := loadRelation(env, s.tuple, in.probe, probeValue)

	const query = 7_000_000
	id, endRound := tr.begin("sim.round", -1, query)
	defer endRound()
	var joins [3]hashjoin.Result
	var hostNs, accesses float64
	for i, sc := range simSchemes {
		_, end := tr.begin("core.join_"+sc.name, id, query)
		start := time.Now()
		res, err := env.Join(build, probe, hashjoin.WithScheme(sc.scheme))
		hostNs += float64(time.Since(start).Nanoseconds())
		end()
		if err != nil {
			return fmt.Errorf("Env.Join(%s): %w", sc.name, err)
		}
		if res.NOutput != want.rows || res.KeySum != want.keysum {
			return fmt.Errorf("Env.Join(%s): (rows, keysum) = (%d, %d), reference (%d, %d)",
				sc.name, res.NOutput, res.KeySum, want.rows, want.keysum)
		}
		joins[i] = res
		accesses += float64(res.JoinStats.Accesses)
	}
	_, end := tr.begin("engine.sim_pipeline", id, query)
	pipe, err := env.RunPipeline(build, probe,
		hashjoin.WithEngine(hashjoin.EngineSim), hashjoin.WithAggregation(4, len(want.groups)))
	end()
	if err != nil {
		return fmt.Errorf("RunPipeline(sim): %w", err)
	}
	if err := checkResult(pipe, want, true); err != nil {
		return fmt.Errorf("RunPipeline(sim): %w", err)
	}

	nProbe := float64(s.nProbe)
	cycles := func(i int) float64 { return float64(joins[i].TotalCycles()) }
	for i, sc := range simSchemes {
		out.set("core.cycles_per_probe_tuple_"+sc.name, cycles(i)/nProbe)
	}
	out.set("core.sim_group_speedup", cycles(0)/cycles(1))
	out.set("core.sim_pipelined_speedup", cycles(0)/cycles(2))
	stall := func(st hashjoin.Stats) float64 {
		return float64(st.DCacheStall+st.TLBStall+st.OtherStall) / float64(st.Total())
	}
	base, group := joins[0].JoinStats, joins[1].JoinStats
	out.set("memsim.baseline_stall_frac", stall(base))
	out.set("memsim.group_stall_frac", stall(group))
	out.set("memsim.l2_misses_per_probe_tuple_baseline", float64(base.L2Misses)/nProbe)
	out.set("memsim.prefetch_full_hidden_frac_group", safeDiv(float64(group.PrefetchFullHidden),
		float64(group.PrefetchFullHidden+group.PrefetchPartHidden+group.PrefetchWasted)))
	out.set("engine.sim_cycles_ratio", float64(pipe.Stats.Total())/cycles(1))
	out.set("memsim.host_ns_per_access", hostNs/accesses)
	return nil
}
