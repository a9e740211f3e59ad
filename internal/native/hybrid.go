package native

import (
	"slices"

	"hashjoin/internal/plan"
)

// Adaptive hybrid hash join: the one ladder every partition pair of a
// budgeted join descends. Recursive splitting and spilling a pair in
// full treat an over-budget pair as all-or-nothing, which wastes the
// budget twice on skewed inputs — partitions that would have fit still
// pay the recursion walk, and a spilled pair writes even the prefix of
// its build side the budget could have held. The hybrid policy measures
// each pair's build footprint after the partition phase and adapts:
//
//   - Pairs that fit MemBudget stay resident and are claimed first, so
//     a mid-join budget shrink (Config.BudgetNow) can still demote the
//     unstarted ones to disk without restarting the query.
//   - Oversized victims are split on an exact hash-code frequency
//     histogram — the frequency-sketch hook; NOCAP-style selection by
//     observed frequency rather than hash bits. Codes whose rows alone
//     exceed the budget are irreducible by construction and go straight
//     to the out-of-core tier, one sub-pair per code, skipping up to
//     maxRepartitionDepth futile radix splits; the cold remainder joins
//     resident when it fits and re-partitions recursively otherwise.
//   - The out-of-core tier itself is hybrid: the first budget-sized
//     chunk of a spilled build side is joined entirely in memory
//     against the still-resident probe entries, so per spilled pair one
//     build chunk and one full probe pass never touch disk (see
//     joinPairSpillHybrid).
//
// Output parity with an unbudgeted join is exact: every build row lands
// in exactly one resident chunk or spilled sub-pair, probe entries are
// routed by the same 32-bit code equality the chain walk filters on,
// and NOutput/KeySum are commutative sums.

// hybridPlan is one join's pair claim order. order holds every pair
// index, the pairs that fit the budget first and the victims after,
// each in index order; foot is indexed by pair, not by rank. An
// unbudgeted join's pairs all fit, so it claims them in index order.
type hybridPlan struct {
	order []int
	foot  []int
}

// reset measures each pair's build footprint and orders the pairs by a
// stable partition on "fits budget". In this engine pairs join one at a
// time per worker against the shared budget, so "the largest prefix
// that fits" is exactly the set of pairs whose own footprint fits. The
// slices are reused across joins.
func (p *hybridPlan) reset(bp *partitions, width, budget int) {
	n := bp.fanout()
	p.foot = slices.Grow(p.foot[:0], n)[:n]
	p.order = slices.Grow(p.order[:0], n)
	for i := range p.foot {
		p.foot[i] = pairFootprint(len(bp.part(i)), width)
		if p.foot[i] <= budget {
			p.order = append(p.order, i)
		}
	}
	for i, f := range p.foot {
		if f > budget {
			p.order = append(p.order, i)
		}
	}
}

// effectiveBudget is the budget a pair claim runs under: MemBudget,
// lowered to the pressure signal's current value when one is installed.
// Sampled once per claim, so a pair sees one consistent budget.
func effectiveBudget(cfg Config) int {
	b := cfg.MemBudget
	if cfg.BudgetNow != nil {
		if now := cfg.BudgetNow(); now > 0 && now < b {
			b = now
		}
	}
	return b
}

// joinPairHybrid joins one partition pair: the entry every pair of a
// partitioned join takes. A pair that fits the budget joins resident.
// An oversized victim is split by hash code: each code whose rows alone
// overflow the budget spills as its own sub-pair through the hybrid
// out-of-core leaf, and the cold remainder — where no code overflows —
// descends the recursive ladder (joinPairBudget). Without a spill tier,
// or with every spill directory down, the whole pair descends that
// ladder, which keeps NoSpill's *BudgetError and the tier's
// *SpillUnavailableError.
func (j *pairJoiner) joinPairHybrid(build, probe []Entry, shift uint, cfg Config) (int, error) {
	if j.spill == nil || !j.spill.available() ||
		!overBudget(pairFootprint(len(build), j.width), cfg.MemBudget, 1) {
		return j.joinPairBudget(build, probe, shift, cfg, 0)
	}
	if sameCode(build) {
		// One code, and it is hot: no histogram, no routed copies.
		return 0, j.joinHotCode(build, j.probeOfCode(probe, build[0].Code), shift, cfg)
	}
	if j.codeFreq == nil {
		j.codeFreq = make(map[uint32]int)
	} else {
		clear(j.codeFreq)
	}
	for i := range build {
		j.codeFreq[build[i].Code]++
	}
	// A code is hot when its rows alone overflow the budget:
	// count > budget/rowFootprint(width) ⇔ pairFootprint(count, width) > budget.
	threshold := cfg.MemBudget / rowFootprint(j.width)
	var hot []uint32
	for code, n := range j.codeFreq {
		if n > threshold {
			hot = append(hot, code)
		} else {
			delete(j.codeFreq, code)
		}
	}
	if len(hot) == 0 {
		return j.joinPairBudget(build, probe, shift, cfg, 0)
	}
	// Sub-pair g holds hot[g]'s entries; sub-pair len(hot) the cold rest.
	// The code order is sorted so the spill order is deterministic.
	slices.Sort(hot)
	builds := make([][]Entry, len(hot)+1)
	nHot := 0
	for g, code := range hot {
		builds[g] = make([]Entry, 0, j.codeFreq[code])
		nHot += j.codeFreq[code]
		j.codeFreq[code] = g
	}
	builds[len(hot)] = make([]Entry, 0, len(build)-nHot)
	probes := make([][]Entry, len(hot)+1)
	j.routeByCode(builds, build, true)
	// With no cold build rows, a cold probe entry is unmatched here.
	j.routeByCode(probes, probe, nHot < len(build))
	for g := range hot {
		if err := j.joinHotCode(builds[g], probes[g], shift, cfg); err != nil {
			return 0, err
		}
	}
	return j.joinPairBudget(builds[len(hot)], probes[len(hot)], shift, cfg, 0)
}

// routeByCode appends each entry, in order, to the sub-pair codeFreq
// maps its code to. An entry of a code that is not hot goes to the last
// sub-pair when keepCold is set, and is emitted as an unmatched probe
// row otherwise.
func (j *pairJoiner) routeByCode(dst [][]Entry, es []Entry, keepCold bool) {
	cold := len(dst) - 1
	for i := range es {
		g, ok := j.codeFreq[es[i].Code]
		switch {
		case ok:
			dst[g] = append(dst[g], es[i])
		case keepCold:
			dst[cold] = append(dst[cold], es[i])
		default:
			j.emitAllProbeUnmatched(es[i : i+1])
		}
	}
}

// joinHotCode joins the sub-pair of one hot code out of core. A code no
// probe entry carries never reaches the disk: its build rows are
// unmatched (emitted only by a right-outer join).
func (j *pairJoiner) joinHotCode(build, probe []Entry, shift uint, cfg Config) error {
	if len(probe) == 0 {
		j.emitUnmatchedPair(build, probe)
		return nil
	}
	return j.joinPairSpillHybrid(build, probe, shift, cfg)
}

// joinPairSpillHybrid is the out-of-core leaf: where joinPairSpill
// writes both sides in full and re-reads the probe per build chunk,
// this leaf first joins one budget-sized build chunk entirely in memory
// against the probe entries — which are still resident at this point —
// and only then spills the remaining build rows plus the probe
// partition through joinPairSpill's chunk loop. Per spilled pair that
// saves writing and re-reading one build chunk and one full probe pass;
// when the remainder is empty nothing touches disk at all.
func (j *pairJoiner) joinPairSpillHybrid(build, probe []Entry, shift uint, cfg Config) error {
	resident := cfg.MemBudget / rowFootprint(j.width)
	if resident > len(build) {
		resident = len(build)
	}
	// Arm the deferred probe bitmap across the resident/spilled seam:
	// the resident prefix probes the probe entries in slice order, which
	// is exactly the order joinPairSpill later streams them back from
	// disk, so a bit set here carries over and suppresses the same row's
	// unmatched emission (or a semi row's re-emission) on the spilled
	// side. joinPairSpill sees deferProbe already set and skips its own
	// arming, which would clear these bits.
	if j.needsProbeBits() {
		j.armProbeBits(len(probe))
	}
	if resident > 0 {
		j.buildSerial(build[:resident], shift, cfg.Scheme, true)
		j.probeFor(&probeInput{ents: probe}, cfg.Scheme)
		// The resident build chunk's rows live only in this table; sweep
		// its unmatched rows before the spill tier rebuilds over rest.
		if j.joinType == plan.RightOuter {
			j.sweepUnmatchedBuild()
		}
	}
	rest := build[resident:]
	if len(rest) == 0 {
		if j.deferProbe {
			j.finishProbeBits(probe)
		}
		return nil
	}
	return j.joinPairSpill(rest, probe, shift, cfg)
}
