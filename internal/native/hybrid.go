package native

import (
	"cmp"
	"slices"

	"hashjoin/internal/plan"
)

// Adaptive hybrid hash join (Config.Hybrid). The classic ladder treats
// every over-budget partition pair as all-or-nothing: it either fits in
// memory or the whole pair recursively re-partitions and, when the skew
// is irreducible, spills in full. On skewed inputs that wastes the
// budget twice — partitions that would have fit still pay the recursion
// walk, and a spilled pair writes even the prefix of its build side the
// budget could have held. The hybrid policy instead measures each
// pair's build footprint after the partition phase and adapts:
//
//   - Pairs that fit MemBudget stay resident and are claimed first, so
//     a mid-join budget shrink (Config.BudgetNow) can still demote the
//     unstarted ones to disk without restarting the query.
//   - Oversized victims are split on an exact hash-code frequency
//     histogram — the frequency-sketch hook; NOCAP-style selection by
//     observed frequency rather than hash bits. Codes whose rows alone
//     exceed the budget are irreducible by construction and go straight
//     to the out-of-core tier, skipping up to maxRepartitionDepth
//     futile radix splits; the cold remainder joins resident when it
//     fits and re-partitions recursively otherwise.
//   - The out-of-core tier itself turns hybrid: the first budget-sized
//     chunk of a spilled build side is joined entirely in memory
//     against the still-resident probe entries, so per spilled pair one
//     build chunk and one full probe pass never touch disk (see
//     joinPairSpillHybrid).
//
// Output parity with the other tiers is exact: every build row lands in
// exactly one resident chunk or spilled sub-pair, probe entries are
// routed by the same 32-bit code equality the chain walk filters on,
// and NOutput/KeySum are commutative sums.

// hybridPlan ranks one join's partition pairs by measured build
// footprint. order holds every pair index, planned-resident prefix
// first (ascending footprint, ties by index, so the plan is
// deterministic); foot is indexed by pair, not by rank.
type hybridPlan struct {
	order    []int
	foot     []int
	resident int // planned-resident pairs: order[:resident]
}

// planHybrid measures each pair's build footprint and sorts pair
// indices so that pairs fitting budget come first, smallest first. In
// this engine pairs join one at a time per worker against the shared
// budget, so "the largest prefix that fits" is exactly the set of pairs
// whose individual footprint fits; the overflow suffix is the victim
// set.
func planHybrid(bp *partitions, width, budget int) *hybridPlan {
	n := bp.fanout()
	p := &hybridPlan{
		order: make([]int, n),
		foot:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		p.order[i] = i
		p.foot[i] = pairFootprint(len(bp.part(i)), width)
	}
	slices.SortFunc(p.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(p.foot[a], p.foot[b]), cmp.Compare(a, b))
	})
	for _, i := range p.order {
		if p.foot[i] > budget {
			break
		}
		p.resident++
	}
	return p
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

// joinPairHybrid joins one partition pair under the hybrid policy. A
// pair that fits the budget joins resident, exactly like the classic
// tier. An oversized victim consults the code-frequency histogram: hot
// codes go to the hybrid out-of-core leaf, the cold remainder descends
// the usual recursive ladder (whose irreducible leaves also use the
// hybrid out-of-core join — see joinPairBudget). Without a spill
// coordinator the classic ladder runs unchanged, so NoSpill semantics
// (*BudgetError) are preserved.
func (j *pairJoiner) joinPairHybrid(build, probe []Entry, shift uint, cfg Config) (int, error) {
	// An unavailable spill tier (every directory unhealthy) routes through
	// joinPairBudget too: it degrades to in-memory re-partitioning while
	// hash bits remain and sheds with *SpillUnavailableError after.
	if j.spill == nil || !j.spill.available() ||
		!overBudget(pairFootprint(len(build), j.width), cfg.MemBudget, 1) {
		return j.joinPairBudget(build, probe, shift, cfg, 0)
	}
	hotBuild, coldBuild, hotProbe, coldProbe := j.splitHotCodes(build, probe, cfg.MemBudget)
	if len(hotBuild) == 0 {
		return j.joinPairBudget(build, probe, shift, cfg, 0)
	}
	if err := j.joinPairSpillHybrid(hotBuild, hotProbe, shift, cfg); err != nil {
		return 0, err
	}
	return j.joinPairBudget(coldBuild, coldProbe, shift, cfg, 0)
}

// splitHotCodes partitions a victim pair by observed code frequency:
// build codes whose rows alone exceed budget are hot — irreducible by
// construction, since radix splitting cannot separate equal codes — and
// both sides' entries are routed by exact code membership. The chain
// walk validates on full 32-bit code equality, so a probe entry can
// only match build rows of its own code and the routing loses no
// matches. The histogram is exact (the victim path is already the slow
// path); an approximate sketch could replace it behind this same
// seam.
func (j *pairJoiner) splitHotCodes(build, probe []Entry, budget int) (hotBuild, coldBuild, hotProbe, coldProbe []Entry) {
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
	threshold := budget / rowFootprint(j.width)
	hot := make(map[uint32]bool)
	for code, count := range j.codeFreq {
		if count > threshold {
			hot[code] = true
		}
	}
	if len(hot) == 0 {
		return nil, build, nil, probe
	}
	hotBuild = make([]Entry, 0, len(build))
	coldBuild = make([]Entry, 0, len(build))
	for i := range build {
		if hot[build[i].Code] {
			hotBuild = append(hotBuild, build[i])
		} else {
			coldBuild = append(coldBuild, build[i])
		}
	}
	hotProbe = make([]Entry, 0, len(probe))
	coldProbe = make([]Entry, 0, len(probe))
	for i := range probe {
		if hot[probe[i].Code] {
			hotProbe = append(hotProbe, probe[i])
		} else {
			coldProbe = append(coldProbe, probe[i])
		}
	}
	return hotBuild, coldBuild, hotProbe, coldProbe
}

// joinPairSpillHybrid is the hybrid out-of-core leaf: where the classic
// joinPairSpill writes both sides in full and re-reads the probe per
// build chunk, this tier first joins one budget-sized build chunk
// entirely in memory against the probe entries — which are still
// resident at this point — and only then spills the remaining build
// rows plus the probe partition through the classic chunk loop. Per
// spilled pair that saves writing and re-reading one build chunk and
// one full probe pass; when the remainder is empty nothing touches disk
// at all. Strictly less I/O than joinPairSpill on every input.
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
		j.probeFor(probe, cfg.Scheme)
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
