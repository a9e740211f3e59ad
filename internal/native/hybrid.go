package native

import (
	"cmp"
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
	j.tally.reset()
	for i := range build {
		j.tally.add(build[i].Code)
	}
	// A code is hot when its rows alone overflow the budget:
	// count > budget/rowFootprint(width) ⇔ pairFootprint(count, width) > budget.
	threshold := cfg.MemBudget / rowFootprint(j.width)
	var hot []tallyCell
	for _, c := range j.tally.cells {
		if int(c.n) > threshold {
			hot = append(hot, c)
		}
	}
	if len(hot) == 0 {
		return j.joinPairBudget(build, probe, shift, cfg, 0)
	}
	// Sub-pair g holds hot[g]'s entries; sub-pair len(hot) the cold rest.
	// The code order is sorted so the spill order is deterministic.
	slices.SortFunc(hot, func(x, y tallyCell) int { return cmp.Compare(x.code, y.code) })
	codes := make([]uint32, len(hot))
	builds := make([][]Entry, len(hot)+1)
	nHot := 0
	for g, c := range hot {
		codes[g] = c.code
		builds[g] = make([]Entry, 0, c.n)
		nHot += int(c.n)
	}
	builds[len(hot)] = make([]Entry, 0, len(build)-nHot)
	probes := make([][]Entry, len(hot)+1)
	j.routeByCode(builds, build, codes, true)
	// With no cold build rows, a cold probe entry is unmatched here.
	j.routeByCode(probes, probe, codes, nHot < len(build))
	for g := range hot {
		if err := j.joinHotCode(builds[g], probes[g], shift, cfg); err != nil {
			return 0, err
		}
	}
	return j.joinPairBudget(builds[len(hot)], probes[len(hot)], shift, cfg, 0)
}

// routeByCode appends each entry, in order, to the sub-pair of its code
// among the sorted hot codes, found by binary search. An entry of a
// code that is not hot goes to the last sub-pair when keepCold is set,
// and is emitted as an unmatched probe row otherwise, a run at a time.
// The search is written out: slices.BinarySearch is not inlined, and
// the call cost a seventh of this loop on spill_skew's profile.
func (j *pairJoiner) routeByCode(dst [][]Entry, es []Entry, hot []uint32, keepCold bool) {
	cold, run := len(hot), 0 // es[run:i] are cold entries not yet emitted
	for i := range es {
		code := es[i].Code
		g, hi := 0, cold
		for g < hi {
			if m := int(uint(g+hi) >> 1); hot[m] < code {
				g = m + 1
			} else {
				hi = m
			}
		}
		switch {
		case g < cold && hot[g] == code:
			dst[g] = append(dst[g], es[i])
			if !keepCold {
				j.emitAllProbeUnmatched(es[run:i])
				run = i + 1
			}
		case keepCold:
			dst[cold] = append(dst[cold], es[i])
		}
	}
	if !keepCold {
		j.emitAllProbeUnmatched(es[run:])
	}
}

// codeTally is the victim split's code-frequency histogram: an
// open-addressed table of (code, count) cells, a zero count marking an
// empty cell, doubled when half full. A pair's codes share their low
// radix bits, so a cell's home is a multiplicative hash of the whole
// code. Kept per pair joiner and reused across victims. Sorting the
// codes and counting runs instead measured slower end to end on
// spill_skew.
type codeTally struct {
	cells []tallyCell
	used  int
	shift uint // 32 - log2(len(cells))
}

type tallyCell struct{ code, n uint32 }

// reset empties the tally, keeping its cells.
func (t *codeTally) reset() {
	if t.cells == nil {
		t.cells, t.shift = make([]tallyCell, 64), 32-6
	} else {
		clear(t.cells)
	}
	t.used = 0
}

// add counts one entry of code.
func (t *codeTally) add(code uint32) {
	mask := uint32(len(t.cells) - 1)
	for i := code * 0x9e3779b1 >> t.shift; ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.n == 0 {
			*c = tallyCell{code, 1}
			if t.used++; 2*t.used > len(t.cells) {
				t.grow()
			}
			return
		}
		if c.code == code {
			c.n++
			return
		}
	}
}

// grow doubles the cells and re-homes every count.
func (t *codeTally) grow() {
	old := t.cells
	t.cells, t.shift = make([]tallyCell, 2*len(old)), t.shift-1
	mask := uint32(len(t.cells) - 1)
	for _, c := range old {
		if c.n == 0 {
			continue
		}
		i := c.code * 0x9e3779b1 >> t.shift
		for t.cells[i].n != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = c
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
		j.buildSerial(build[:resident], shift, cfg.Scheme)
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
