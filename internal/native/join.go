package native

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"unsafe"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
)

// pairJoiner joins one build/probe partition pair natively. One lives in
// each morsel worker; the row table and stage-state scratch are recycled
// across pairs and across joins (see Joiner.worker).
type pairJoiner struct {
	data []byte
	// t's width is the build bytes its rows keep, the one row width the
	// walk, the sweep and the unmatched-entry emits read; width is the
	// whole build tuple, the width every budget decision charges
	// (pairFootprint).
	t     *RowTable
	width int
	g, d  int

	states []probeState // group/pipeline stage state, reused

	// sink, when set, receives every validated match: the build row's
	// serialized key+payload bytes (valid only for the duration of the
	// call) and the probe tuple address. It lets the probe loops feed a
	// batch pipeline; nil keeps the counting-only fast path.
	sink func(build []byte, probeRef uint64)

	// spill, when set, is the join's shared out-of-core coordinator: an
	// irreducible over-budget pair goes to disk instead of failing (see
	// spill.go). The entry and page scratch below is recycled across
	// spilled chunks: spillPinned holds the chunk being joined, its
	// pinned build pages; spillProbe one probe page's entries; spillCode
	// a one-code pair's probe entries of that code (see probeOfCode).
	spill       *spillState
	spillProbe  []Entry
	spillCode   []Entry
	spillPinned []spill.Page

	// tally is the victim path's code-frequency histogram scratch,
	// reused across victims (see joinPairHybrid).
	tally codeTally

	// joinType selects the match semantics (see jointype.go). Inner is
	// the zero value, so untyped call sites keep the fast paths.
	joinType plan.JoinType

	// buildMatched is the right-outer build-row match bitmap for the
	// current table, armed by buildSerial; bits are set atomically so a
	// shared BuildSide's table serves concurrent probers, each with its
	// own bitmap.
	buildMatched []uint64

	// probeMatched/probeBase/deferProbe implement deferred unmatched-
	// probe resolution when the build side arrives in chunks: bit
	// probeBase+idx set means the probe stream's row at that position
	// matched some chunk. See jointype.go.
	probeMatched []uint64
	probeBase    int
	deferProbe   bool

	nOutput int
	keySum  uint64

	// The counters above are written on every match. The pad keeps them
	// off the cache line of whatever the allocator places next, such as
	// the next morsel worker's pairJoiner, whose leading fields its probe
	// loop reads on every tuple: without it, two workers' joiners in one
	// size class that is not a multiple of 64 bytes share a line.
	_ [64]byte
}

func newPairJoiner() *pairJoiner {
	return &pairJoiner{t: &RowTable{}}
}

// probeState carries one probe tuple's state across the probe stages.
// Unlike the v1 states there is no per-tuple match buffer: the chain
// walk compares keys in-row and emits directly.
type probeState struct {
	key  uint32
	code uint32
	ref  uint64 // probe tuple address, for match emission
	slot uint32 // home slot after stage 0; the tag-matching or empty slot after stage 1
	row  uint32 // row+1 the tag-matching slot heads after stage 1, 0 on a miss
	idx  int32  // batch-relative index, for the deferred probe bits
}

// statesFor returns n stage-state slots, reusing the scratch array.
func (j *pairJoiner) statesFor(n int) []probeState {
	if cap(j.states) < n {
		j.states = make([]probeState, n)
	}
	return j.states[:n]
}

// walkChain is the probe's final stage: confirm that the row stage 1
// found heads st.code's chain — a head of another code is a tag
// collision, and the directory scan resumes past it — then follow the
// chain, prefetching the next row one step ahead, and validate by
// comparing the probe key against the key serialized in the row — no
// storage.Relation access, the win of the compact row layout. Every row
// of the chain carries st.code, so only the key is compared.
func (j *pairJoiner) walkChain(st *probeState) {
	if j.joinType == plan.LeftSemi || j.joinType == plan.LeftAnti {
		j.walkChainSemi(st)
		return
	}
	t := j.t
	rows := t.rows
	w := uint64(t.width)
	found := false
	ref := st.row
	if ref != 0 && t.codeOf(ref) != st.code {
		_, ref = t.find(st.code, (st.slot+1)&t.mask) // a tag collision
	}
	for ref != 0 {
		off := t.rowOff(ref - 1)
		next := binary.LittleEndian.Uint32(rows[off:])
		if next != 0 {
			prefetchT0(unsafe.Pointer(&rows[t.rowOff(next-1)]))
		}
		if binary.LittleEndian.Uint32(rows[off+rowKeyOff:]) == st.key {
			found = true
			j.nOutput++
			j.keySum += uint64(st.key)
			if j.joinType == plan.RightOuter {
				j.markBuildRow(ref - 1)
			}
			if j.sink != nil {
				j.sink(rows[off+rowKeyOff:off+rowKeyOff+w], st.ref)
			}
		}
		ref = next
	}
	if found {
		if j.deferProbe {
			j.markProbeBit(st)
		}
		return
	}
	if j.joinType == plan.LeftOuter && !j.deferProbe {
		j.emitProbeRow(st.ref, 0)
	}
}

// walkChainSemi is the semi/anti chain walk: it short-circuits on the
// first validated match instead of emitting every one. A semi match
// emits the probe row immediately — under deferred mode the probe bit
// doubles as a cross-chunk "already emitted" guard, so no final pass is
// needed — while anti rows are emitted only once the whole build side
// has been seen (end of chain in memory, finishProbeBits or the spill
// sweep under deferred mode).
func (j *pairJoiner) walkChainSemi(st *probeState) {
	if j.deferProbe && j.probeBit(st) {
		return // resolved by an earlier build chunk
	}
	semi := j.joinType == plan.LeftSemi
	t := j.t
	rows := t.rows
	ref := st.row
	if ref != 0 && t.codeOf(ref) != st.code {
		_, ref = t.find(st.code, (st.slot+1)&t.mask) // a tag collision
	}
	for ref != 0 {
		off := t.rowOff(ref - 1)
		next := binary.LittleEndian.Uint32(rows[off:])
		if next != 0 {
			prefetchT0(unsafe.Pointer(&rows[t.rowOff(next-1)]))
		}
		if binary.LittleEndian.Uint32(rows[off+rowKeyOff:]) == st.key {
			if j.deferProbe {
				j.markProbeBit(st)
			}
			if semi {
				j.emitProbeRow(st.ref, st.key)
			}
			return
		}
		ref = next
	}
	if !semi && !j.deferProbe {
		j.emitProbeRow(st.ref, st.key)
	}
}

// maxRepartitionDepth bounds recursive re-partitioning of an oversized
// pair. Each level multiplies the fan-out by at least 2, so 8 levels on
// top of the initial fan-out split a pair at least 256-fold; a pair
// still over budget after that is dominated by duplicate hash codes that
// no amount of radix splitting can separate.
const maxRepartitionDepth = 8

// joinPairBudget joins one partition pair under a memory budget: a pair
// whose estimated footprint fits cfg.MemBudget is joined directly; an
// oversized pair is radix-split on the hash bits above shift — the GRACE
// degradation the paper's partition phase applies when a partition
// exceeds memory — and each sub-pair joined recursively. It returns the
// deepest recursion level used, or a *BudgetError when the depth bound
// or the hash bits run out before the pair fits.
//
// An oversized pair gets here from joinPairHybrid only as a cold
// remainder, in which no hash code alone exceeds the budget, or with
// the spill tier off or down.
func (j *pairJoiner) joinPairBudget(build, probe []Entry, shift uint, cfg Config, depth int) (int, error) {
	if len(build) == 0 || len(probe) == 0 {
		j.emitUnmatchedPair(build, probe)
		return depth, nil
	}
	need := pairFootprint(len(build), j.width)
	if need <= cfg.MemBudget {
		j.joinPair(build, probe, shift, cfg.Scheme)
		return depth, nil
	}
	bitsLeft := 32 - int(shift)
	if depth >= maxRepartitionDepth || bitsLeft <= 0 {
		// Out of depth or hash bits: the final tier of the ladder joins
		// the pair out of core in budget-sized build chunks; only
		// Config.NoSpill (or a schema that cannot round-trip through
		// fixed-width spill rows) still fails.
		switch {
		case j.spill == nil:
			return depth, &BudgetError{Budget: cfg.MemBudget, Need: need, Depth: depth}
		case j.spill.available():
			return depth, j.joinPairSpillHybrid(build, probe, shift, cfg)
		case bitsLeft > 0:
			// Every spill directory is down but hash bits remain: degrade
			// back *up* the ladder and keep re-partitioning in memory, past
			// the depth cap if need be. The 32 hash bits bound this, so a
			// pair that stays irreducible all the way down still sheds
			// below.
		default:
			return depth, j.spill.unavailable()
		}
	}
	sub := subFanoutFor(need, cfg.MemBudget, bitsLeft)
	var bsub, psub partitions
	bsub.split(build, shift, sub)
	psub.split(probe, shift, sub)
	maxDepth := depth
	for i := 0; i < sub; i++ {
		d, err := j.joinPairBudget(bsub.part(i), psub.part(i), bsub.bits, cfg, depth+1)
		if d > maxDepth {
			maxDepth = d
		}
		if err != nil {
			// Report the deepest level this subtree reached, not just the
			// failing sub-call's depth: sibling sub-pairs joined before the
			// failure may have recursed deeper, and both the returned depth
			// and a propagating *BudgetError must reflect the join's actual
			// maximum recursion.
			var be *BudgetError
			if errors.As(err, &be) && be.Depth < maxDepth {
				be.Depth = maxDepth
			}
			return maxDepth, err
		}
	}
	return maxDepth, nil
}

// sameCode reports whether every entry carries the first entry's hash
// code. It stops at the first code that differs.
func sameCode(es []Entry) bool {
	for i := range es {
		if es[i].Code != es[0].Code {
			return false
		}
	}
	return true
}

// probeOfCode copies the probe entries of code, in order, into the
// pair's scratch and emits every other entry as unmatched: no row of a
// build side that is all code can match them. The returned slice is
// valid until the next call.
func (j *pairJoiner) probeOfCode(probe []Entry, code uint32) []Entry {
	out, lo := j.spillCode[:0], 0
	for i := range probe {
		if probe[i].Code == code {
			j.emitAllProbeUnmatched(probe[lo:i])
			lo = i + 1
			out = append(out, probe[i])
		}
	}
	j.emitAllProbeUnmatched(probe[lo:])
	j.spillCode = out
	return out
}

// subFanoutFor picks the smallest power-of-two sub-fan-out (at least 2)
// that brings an average sub-pair of a need-byte pair under budget,
// capped at 256 and by the hash bits still unconsumed. The comparison is
// written in divide form — ceil(need/sub) > budget — because the
// multiplied form need > budget*sub overflows int for budgets above
// MaxInt/sub and spuriously inflates the fan-out.
func subFanoutFor(need, budget, bitsLeft int) int {
	sub := 2
	for sub < 256 && overBudget(need, budget, sub) {
		sub <<= 1
	}
	if maxSub := 1 << uint(min(bitsLeft, 8)); sub > maxSub {
		sub = maxSub
	}
	return sub
}

// overBudget reports whether need bytes split parts ways still exceeds
// budget bytes per part: ceil(need/parts) > budget, computed without the
// overflowing product budget*parts.
func overBudget(need, budget, parts int) bool {
	q := need / parts
	if need%parts != 0 {
		q++
	}
	return q > budget
}

// joinPair builds a row table over build and probes it with probe.
// shift is the partitioner's radix width, so bucket numbers use
// untouched bits.
func (j *pairJoiner) joinPair(build, probe []Entry, shift uint, scheme Scheme) {
	if len(build) == 0 || len(probe) == 0 {
		j.emitUnmatchedPair(build, probe)
		return
	}
	j.buildSerial(build, shift, scheme)
	j.probeFor(&probeInput{ents: probe}, scheme)
	if j.joinType == plan.RightOuter {
		j.sweepUnmatchedBuild()
	}
}

// buildSerial resets the worker's table and serializes + inserts build
// with the scheme's loop restructuring. Split out of joinPair because
// the hybrid spill leaf builds its resident prefix and probes it with
// the whole probe side. The table keeps the row width the join armed
// it with (Joiner.worker).
func (j *pairJoiner) buildSerial(build []Entry, shift uint, scheme Scheme) {
	j.t.Reset(len(build), j.t.width, shift)
	j.t.BuildSerial(j.data, build, scheme, j.g, j.d)
	if j.joinType == plan.RightOuter {
		j.armBuildMatched(len(build))
	}
}

// probeFor probes the current table with in, with the scheme's
// restructuring.
func (j *pairJoiner) probeFor(in *probeInput, scheme Scheme) {
	switch scheme {
	case Group:
		j.probeGroup(in)
	case Pipelined:
		j.probePipelined(in)
	default:
		j.probeBaseline(in)
	}
}

// probeInput is a probe loop's input: entries (the partitioned,
// recursive and spill paths, ProbeBatch), or, with data set, slotted
// pages read in place (the streaming probe). stage0 draws tuples from
// either, so each scheme has one loop.
type probeInput struct {
	ents []Entry // consumed from the front

	// The arena's bytes, the pages not yet begun, and the page in
	// progress: its address, next slot's offset into data, and tuples
	// not yet drawn. ctx is checked as each page begins; err keeps what
	// stopped the input.
	data     []byte
	pages    []arena.Addr
	pageSize uint64
	page     arena.Addr
	slot     uint64
	left     int
	ctx      context.Context
	err      error
}

// stage0 is stage 0 for at most len(states) next tuples, numbered from
// idx: each tuple's address and the hash code memoized with it (paper
// section 7.1), its home slot and, with prefetch, a prefetch of the
// slot's directory line and, on a page, of the tuple's key line, which
// stage 2 reads (loadKey). A page slot is read once. It returns the
// states filled, 0 once the input is spent or stopped.
func (in *probeInput) stage0(t *RowTable, states []probeState, idx int, prefetch bool) int {
	if in.data == nil {
		n := min(len(states), len(in.ents))
		for i := range states[:n] {
			e, st := &in.ents[i], &states[i]
			st.key, st.code, st.ref, st.idx = e.Key, e.Code, e.Ref, int32(idx+i)
			st.slot = t.home(e.Code)
			if prefetch {
				prefetchT0(unsafe.Pointer(&t.dir[st.slot]))
			}
		}
		in.ents = in.ents[n:]
		return n
	}
	n := 0
	for n < len(states) && (in.left > 0 || in.turn()) {
		k := min(len(states)-n, in.left)
		data, page, slot := in.data, in.page, in.slot
		for i := n; i < n+k; i++ {
			off := uint64(binary.LittleEndian.Uint16(data[slot+storage.SlotOffOffset:]))
			code := binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])
			slot -= storage.SlotSize
			st := &states[i]
			st.code, st.ref, st.idx = code, page+off, int32(idx+i)
			st.slot = t.home(code)
			if prefetch {
				prefetchT0(unsafe.Pointer(&t.dir[st.slot]))
				prefetchT0(unsafe.Pointer(&data[page-arena.Base+off]))
			}
		}
		in.slot, in.left, n = slot, in.left-k, n+k
	}
	return n
}

// turn begins the next page that holds a tuple, reporting false when
// none is left or ctx has stopped the input.
func (in *probeInput) turn() bool {
	for in.left == 0 && len(in.pages) > 0 {
		if in.err = in.ctx.Err(); in.err != nil {
			in.pages = nil
			return false
		}
		in.page, in.pages = in.pages[0], in.pages[1:]
		base := in.page - arena.Base
		in.left = int(binary.LittleEndian.Uint16(in.data[base:]))
		in.slot = base + in.pageSize - storage.SlotSize
	}
	return in.left > 0
}

// loadKey reads the probe key of st from its tuple when the input is
// pages; an entry's key came with it in stage 0.
func (in *probeInput) loadKey(st *probeState) {
	if in.data != nil {
		st.key = binary.LittleEndian.Uint32(in.data[st.ref-arena.Base:])
	}
}

// --- Baseline ---

// probeBaseline walks each probe tuple's full dependence chain — the
// directory slots, then every row on the chain — before touching the
// next tuple. Every step can miss, and the misses serialize. Tuples are
// drawn G at a time, without a prefetch.
func (j *pairJoiner) probeBaseline(in *probeInput) {
	t := j.t
	states := j.statesFor(j.g)
	for lo := 0; ; {
		n := in.stage0(t, states, lo, false)
		if n == 0 {
			return
		}
		for i := range states[:n] {
			st := &states[i]
			st.slot, st.row = t.scan(t.tag(st.code), st.slot)
			in.loadKey(st)
			j.walkChain(st)
		}
		lo += n
	}
}

// --- Group prefetching (paper section 4) ---

// probeGroup strip-mines the probe loop into G-tuple groups processed
// in stages; each stage performs one dependent reference per tuple and
// prefetches the next stage's references, so one tuple's cache misses
// overlap with the computation and misses of the other G-1. The row
// layout needs one stage fewer than v1: chain rows are self-contained,
// so there is no final "visit the build tuple" stage. A group may span
// pages of a page input.
func (j *pairJoiner) probeGroup(in *probeInput) {
	t := j.t
	states := j.statesFor(j.g)
	// Outer/semi/anti probes must observe unmatched tuples too, so an
	// empty slot (a miss) cannot skip the walk for those types.
	all := j.needsProbeBits()

	for lo := 0; ; {
		// Stage 0: draw the group, compute home slots; prefetch them.
		n := in.stage0(t, states, lo, true)
		if n == 0 {
			return
		}

		// Stage 1: scan for each code's tag; prefetch the row it heads.
		for i := 0; i < n; i++ {
			st := &states[i]
			st.slot, st.row = t.scan(t.tag(st.code), st.slot)
			if st.row != 0 {
				prefetchT0(unsafe.Pointer(&t.rows[t.rowOff(st.row-1)]))
			}
		}

		// Stage 2: walk chains, compare keys in-row, emit.
		for i := 0; i < n; i++ {
			st := &states[i]
			if st.row != 0 || all {
				in.loadKey(st)
				j.walkChain(st)
			}
		}
		lo += n
	}
}

// --- Software-pipelined prefetching (paper section 5) ---

// nextPow2 returns the smallest power of two >= v.
func nextPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// probePipelined combines different stages of different tuples in one
// iteration: iteration it runs stage 0 for tuple it, stage 1 for tuple
// it-D, stage 2 for it-2D, so subsequent stages of one tuple sit D
// iterations apart and the prefetch pipeline never drains between
// groups. State lives in a circular array sized to a power of two of at
// least 2D+1 entries (section 5.3; the row layout has three stages, not
// four). The tuple count is known once stage 0 finds the input spent.
func (j *pairJoiner) probePipelined(in *probeInput) {
	t := j.t
	d := j.d
	size := nextPow2(2*d + 1)
	mask := size - 1
	states := j.statesFor(size)
	total := math.MaxInt
	all := j.needsProbeBits() // see probeGroup

	for it := 0; it-2*d < total; it++ {
		// Stage 0 for tuple it: draw it, home slot, prefetch it.
		if it < total && in.stage0(t, states[it&mask:it&mask+1], it, true) == 0 {
			total = it
		}

		// Stage 1 for tuple it-D: scan for its tag, prefetch the row.
		if k := it - d; k >= 0 && k < total {
			st := &states[k&mask]
			st.slot, st.row = t.scan(t.tag(st.code), st.slot)
			if st.row != 0 {
				prefetchT0(unsafe.Pointer(&t.rows[t.rowOff(st.row-1)]))
			}
		}

		// Stage 2 for tuple it-2D: walk the chain, compare in-row, emit.
		if k := it - 2*d; k >= 0 && k < total {
			st := &states[k&mask]
			if st.row != 0 || all {
				in.loadKey(st)
				j.walkChain(st)
			}
		}
	}
}
