package native

import (
	"context"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
)

// Morsel-driven join phase: partition pairs are the morsels, and a
// worker pool claims them from a shared atomic queue. Round-robin
// pre-assignment (as in the simulator's core.JoinPartitionsParallel)
// serializes on skew — a worker stuck with the one huge partition
// determines the wall clock while its siblings idle; with a queue, the
// huge pair costs one worker and every other pair drains in parallel
// behind it. The result is deterministic regardless of claim order
// because NOutput and KeySum are commutative sums.

// worker returns the Joiner's w-th pairJoiner, creating it on first use
// and re-arming it (data pointer, tuning, zeroed accumulators) for this
// join. Tables and match buffers carry over, so repeated joins run on
// recycled memory.
func (jn *Joiner) worker(w int, data []byte, width int, cfg Config) *pairJoiner {
	for len(jn.workers) <= w {
		jn.workers = append(jn.workers, newPairJoiner())
	}
	j := jn.workers[w]
	j.data = data
	j.width = width
	j.g, j.d = cfg.G, cfg.D
	j.joinType = cfg.JoinType
	j.deferProbe, j.probeBase = false, 0
	j.nOutput, j.keySum = 0, 0
	j.sink = nil
	if jn.sinkFor != nil {
		j.sink = jn.sinkFor(w)
	}
	j.spill = jn.spillSt
	return j
}

// claimCheck is the cooperative gate a worker passes before claiming a
// partition pair: cancellation first, then the worker failpoint (so
// fault tests can kill one claim deterministically).
func claimCheck(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fault.Hit(fault.SiteMorselWorker)
}

// joinPairs joins corresponding partition pairs of jn.bp and jn.pp
// through a morsel Pool: cfg.Pool when a shared pool is installed (the
// multi-tenant scheduler), else a localPool spanning up to cfg.Workers
// dedicated goroutines. The first error any morsel hits — a
// *BudgetError from an irreducible pair, arena exhaustion recovered
// from a sink, cancellation, or an injected fault — stops further
// morsel issue, and joinPairs returns it after every in-flight morsel
// has finished; a failure never panics across a goroutine boundary and
// never leaks a worker. Cancellation-class errors come back as a
// *CancelError carrying how many pairs completed.
func (jn *Joiner) joinPairs(data []byte, width int, cfg Config) (Result, error) {
	bp, pp := &jn.bp, &jn.pp
	n := bp.fanout()
	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// Per-slot progress accounting, padded to distinct cache lines. The
	// pool contract (one Run in flight per slot) makes slot-indexed
	// writes race-free; output accumulators live in the pairJoiners.
	type slotAcc struct {
		depth        int
		pairs        int
		resident     int
		spilled      int
		demoted      int
		bytesDemoted int64
		_            [16]byte
	}
	accs := make([]slotAcc, workers)
	js := make([]*pairJoiner, workers)
	for w := 0; w < workers; w++ {
		js[w] = jn.worker(w, data, width, cfg)
	}
	err := RunMorsels(cfg.Pool, &MorselJob{
		Tenant: cfg.Tenant,
		Weight: cfg.Weight,
		N:      n,
		Slots:  workers,
		Run: func(slot, i int) (err error) {
			defer arena.RecoverOOM(&err)
			if err = claimCheck(cfg.Ctx); err != nil {
				return err
			}
			var d int
			if plan := jn.plan; plan != nil {
				// Hybrid: morsel i is the i-th pair of the plan order —
				// planned-resident pairs first — joined under the budget in
				// force at claim time. A pair the static budget would have
				// kept resident but the shrunken one cannot is a demotion:
				// it takes the victim path instead of restarting the query.
				pi := plan.order[i]
				ccfg := cfg
				ccfg.MemBudget = effectiveBudget(cfg)
				foot := plan.foot[pi]
				if foot <= ccfg.MemBudget {
					if foot > 0 {
						accs[slot].resident++
					}
				} else {
					accs[slot].spilled++
					if foot <= cfg.MemBudget {
						accs[slot].demoted++
						accs[slot].bytesDemoted += int64(foot)
					}
				}
				d, err = js[slot].joinPairHybrid(bp.part(pi), pp.part(pi), bp.bits, ccfg)
			} else {
				d, err = js[slot].joinPairBudget(bp.part(i), pp.part(i), bp.bits, cfg, 0)
			}
			if err != nil {
				return err
			}
			accs[slot].pairs++
			if d > accs[slot].depth {
				accs[slot].depth = d
			}
			return nil
		},
	})

	var r Result
	r.Workers = workers
	for w := range accs {
		r.PairsJoined += accs[w].pairs
		if accs[w].depth > r.RecursionDepth {
			r.RecursionDepth = accs[w].depth
		}
		r.ResidentPartitions += accs[w].resident
		r.VictimPartitions += accs[w].spilled
		r.DemotedPartitions += accs[w].demoted
		r.BytesDemoted += accs[w].bytesDemoted
	}
	for _, j := range js {
		r.NOutput += j.nOutput
		r.KeySum += j.keySum
	}
	if err != nil {
		return Result{Workers: workers, PairsJoined: r.PairsJoined},
			asCancel(err, r.PairsJoined, n, r.NOutput)
	}
	return r, nil
}
