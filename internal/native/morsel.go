package native

import (
	"context"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
	"hashjoin/internal/storage"
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
// and re-arming it (data pointer, widths, tuning, zeroed accumulators)
// for this join: width is the whole build tuple, rowWidth the bytes its
// tables keep. Tables and match buffers carry over, so repeated joins
// run on recycled memory.
func (jn *Joiner) worker(w int, data []byte, width, rowWidth int, cfg Config) *pairJoiner {
	for len(jn.workers) <= w {
		jn.workers = append(jn.workers, newPairJoiner())
	}
	j := jn.workers[w]
	j.data = data
	j.width, j.t.width = width, rowWidth
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

// minPartMorsel is the fewest tuples worth a partition morsel of their
// own: a relation pair with fewer than two morsels' worth partitions on
// the calling goroutine, since a pool round trip would cost more than
// the tuples (minBuildMorsel is the build's counterpart).
const minPartMorsel = 64 << 10

// partition is the partition phase: build and probe each split into
// fanout partitions by the kernel in entry.go. A pair worth two morsels
// runs it on the workers as two morsel jobs, each covering both
// relations — every range counts, one prefix sum per relation places,
// every range scatters — with each relation cut into at most one page
// range per worker and per minPartMorsel tuples. The entries equal a
// serial split's, byte for byte.
func (jn *Joiner) partition(build, probe *storage.Relation, fanout int, cfg Config) error {
	bp, pp := &jn.bp, &jn.pp
	if cfg.Workers < 2 || build.NTuples+probe.NTuples < 2*minPartMorsel {
		bp.cut(build, fanout, 1)
		pp.cut(probe, fanout, 1)
		bp.run()
		pp.run()
		return nil
	}
	ranges := func(rel *storage.Relation) int {
		return max(1, min(cfg.Workers, (rel.NTuples+minPartMorsel-1)/minPartMorsel))
	}
	bp.cut(build, fanout, ranges(build))
	pp.cut(probe, fanout, ranges(probe))
	nb, n := len(bp.ranges), len(bp.ranges)+len(pp.ranges)
	pass := func(kernel func(*partitions, *partRange)) error {
		return RunMorsels(cfg.Pool, &MorselJob{
			Tenant: cfg.Tenant,
			Weight: cfg.Weight,
			N:      n,
			Slots:  min(cfg.Workers, n),
			Run: func(_, i int) (err error) {
				defer arena.RecoverOOM(&err)
				if err = claimCheck(cfg.Ctx); err != nil {
					return err
				}
				if i < nb {
					kernel(bp, &bp.ranges[i])
				} else {
					kernel(pp, &pp.ranges[i-nb])
				}
				return nil
			},
		})
	}
	if err := pass((*partitions).count); err != nil {
		return err
	}
	bp.place()
	pp.place()
	return pass((*partitions).scatter)
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
func (jn *Joiner) joinPairs(data []byte, width, rowWidth int, cfg Config) (Result, error) {
	bp, pp := &jn.bp, &jn.pp
	n := bp.fanout()
	workers := cfg.morselSlots(n)

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
		js[w] = jn.worker(w, data, width, rowWidth, cfg)
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
			// Morsel i is the i-th pair of the plan order — pairs that fit
			// first — joined under the budget in force at claim time. A
			// pair the static budget would have kept resident but the
			// shrunken one cannot is a demotion: it takes the victim path
			// instead of restarting the query.
			pi := jn.plan.order[i]
			ccfg := cfg
			ccfg.MemBudget = effectiveBudget(cfg)
			foot := jn.plan.foot[pi]
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
			d, err := js[slot].joinPairHybrid(bp.part(pi), pp.part(pi), bp.bits, ccfg)
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
