package engine

// Simulator backend: the batch operators run against vmem.Mem, so every
// data access is timed by the cycle-level memory-hierarchy simulator —
// the batch port of the former per-tuple internal/ops layer. The join
// probes through core.Prober, whose group-prefetched pass is the
// pipeline-friendly scheme of section 5.4: one child batch (<= G rows)
// is exactly one group-prefetched probe pass.

import (
	"context"
	"fmt"

	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/hash"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
)

// simScan reads a relation in storage order, charging page and slot
// reads, and yields batches of up to batch rows.
type simScan struct {
	m     *vmem.Mem
	rel   *storage.Relation
	batch int
	ctx   context.Context // nil: never cancelled

	pageIdx int
	slotIdx int
	nslots  int
	page    arena.Addr
}

func newSimScan(m *vmem.Mem, rel *storage.Relation, batch int) *simScan {
	return &simScan{m: m, rel: rel, batch: batch, pageIdx: -1}
}

func (s *simScan) Open() error { s.pageIdx = -1; s.slotIdx = 0; s.nslots = 0; return nil }

func (s *simScan) NextBatch(b *Batch) (bool, error) {
	// The scan is every pipeline's data pump, so a per-batch check here
	// bounds how far past cancellation any compiled plan can run.
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return false, err
		}
	}
	b.Reset()
	for len(b.Rows) < s.batch {
		for s.pageIdx < 0 || s.slotIdx >= s.nslots {
			s.pageIdx++
			if s.pageIdx >= s.rel.NPages() {
				return len(b.Rows) > 0, nil
			}
			s.page = s.rel.Pages[s.pageIdx]
			s.m.PrefetchRange(s.page, s.rel.PageSize)
			s.nslots = int(s.m.ReadU16(storage.NSlotsAddr(s.page)))
			s.slotIdx = 0
		}
		slot := storage.SlotAddr(s.page, s.rel.PageSize, s.slotIdx)
		s.slotIdx++
		s.m.S.Read(slot, storage.SlotSize)
		off := s.m.A.U16(slot + storage.SlotOffOffset)
		length := s.m.A.U16(slot + storage.SlotOffLength)
		code := s.m.A.U32(slot + storage.SlotOffHash)
		b.Rows = append(b.Rows, Row{
			Addr: s.page + arena.Addr(off),
			Code: code,
			Len:  int32(length),
		})
	}
	return true, nil
}

func (s *simScan) Close() {}

// simFilter passes through rows whose key lies in [lo, hi], with a
// timed key load and compare per row.
type simFilter struct {
	m     *vmem.Mem
	child Operator
	pred  Pred
	batch int

	in   Batch
	next int
	done bool
}

func newSimFilter(m *vmem.Mem, child Operator, pred Pred, batch int) *simFilter {
	return &simFilter{m: m, child: child, pred: pred, batch: batch}
}

func (f *simFilter) Open() error {
	if err := f.child.Open(); err != nil {
		return err
	}
	f.in.Reset()
	f.next = 0
	f.done = false
	return nil
}

func (f *simFilter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for len(b.Rows) < f.batch {
		if f.next >= f.in.Len() {
			if f.done {
				break
			}
			ok, err := f.child.NextBatch(&f.in)
			if err != nil {
				return false, err
			}
			if !ok {
				f.done = true
				break
			}
			f.next = 0
		}
		r := f.in.Rows[f.next]
		f.next++
		k := f.m.ReadU32(r.Addr)
		f.m.Compute(core.CostCompare)
		if k >= f.pred.Lo && k <= f.pred.Hi {
			b.Rows = append(b.Rows, r)
		}
	}
	return len(b.Rows) > 0, nil
}

func (f *simFilter) Close() { f.child.Close() }

// materializeSim drains op into a fresh relation of fixed width with
// timed copies — the pipeline-breaking step of build sides and
// aggregations — and closes op.
func materializeSim(m *vmem.Mem, op Operator, width int) (*storage.Relation, error) {
	rel := storage.NewRelation(m.A, storage.KeyPayloadSchema(width), materializePage)
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	buf := make([]byte, width)
	var b Batch
	for {
		ok, err := op.NextBatch(&b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for i := range b.Rows {
			r := b.Rows[i]
			if int(r.Len) != width {
				panic(fmt.Sprintf("engine: materializing %d-byte row into %d-byte relation", r.Len, width))
			}
			src := m.ReadBytes(r.Addr, width)
			copy(buf, src)
			code := r.Code
			if code == 0 {
				code = hash.Code(buf[:4])
			}
			rel.Append(buf, code)
			// Charge the store at the tuple's landing spot plus its slot.
			last := rel.Page(rel.NPages() - 1)
			addr, n := last.TupleAddr(last.NSlots() - 1)
			m.S.Write(addr, n)
			m.S.Write(storage.SlotAddr(last.Addr, last.Size, last.NSlots()-1), storage.SlotSize)
		}
	}
	return rel, nil
}

// simHashJoin is the pipelined, group-prefetched hash join. Open
// resolves the build side — the build child's base relation when it is
// a plain scan, otherwise a timed materialization (closing the build
// child either way) — resolves the strategy over it, which on the
// simulator is always the stream, and constructs the hash table;
// NextBatch then probes one child batch per group-prefetched pass and
// yields the concatenated build||probe rows.
type simHashJoin struct {
	m          *vmem.Mem
	cfg        Config // the strategy request it resolves (Config.decide)
	buildChild Operator
	probeChild Operator
	buildRel   *storage.Relation // non-nil: build child is a plain scan
	probeRows  int               // the probe child's rows if it is a plain scan, else 0
	buildWidth int
	probeWidth int
	outWidth   int
	params     core.Params
	jt         plan.JoinType

	prober *core.Prober
	rel    *storage.Relation // resolved build relation (right-outer sweep)

	out          []arena.Addr // output ring, grown on demand
	outSlot      int
	pending      []Row
	next         int
	in           Batch
	batch        []core.ProbeTuple
	matched      []bool                  // per-strip probe match bits
	addrIdx      map[arena.Addr]int      // probe Addr -> strip index
	matchedBuild map[arena.Addr]struct{} // right outer: matched build tuples
	done         bool
	swept        bool
	buildClosed  bool
	probeClosed  bool
}

func newSimHashJoin(m *vmem.Mem, build, probe Operator, buildRel *storage.Relation,
	buildWidth, probeWidth int, params core.Params, jt plan.JoinType) *simHashJoin {
	return &simHashJoin{
		m: m, buildChild: build, probeChild: probe, buildRel: buildRel,
		buildWidth: buildWidth, probeWidth: probeWidth, params: params, jt: jt,
	}
}

func (h *simHashJoin) Open() error {
	rel := h.buildRel
	if rel == nil {
		var err error
		rel, err = materializeSim(h.m, h.buildChild, h.buildWidth)
		h.buildClosed = true
		if err != nil {
			return err
		}
	} else {
		h.buildChild.Close()
		h.buildClosed = true
	}
	h.probeClosed = false
	if _, err := h.cfg.decide(h.jt, JoinStats(rel.NTuples, h.buildWidth, h.probeRows, h.probeWidth), false); err != nil {
		return err
	}
	h.rel = rel
	h.prober = core.NewProber(h.m, rel, h.params)
	if err := h.probeChild.Open(); err != nil {
		return err
	}
	h.outWidth = h.buildWidth + h.probeWidth
	if h.jt.ProbeOnly() {
		h.outWidth = h.probeWidth
	}
	if h.jt == plan.RightOuter {
		h.matchedBuild = make(map[arena.Addr]struct{})
	}
	h.batch = h.batch[:0]
	h.out = h.out[:0]
	h.pending = h.pending[:0]
	h.next = 0
	h.done = false
	h.swept = false
	return nil
}

func (h *simHashJoin) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	g := h.prober.BatchSize()
	for h.next >= len(h.pending) {
		if h.done {
			return false, nil
		}
		if err := h.fillPending(); err != nil {
			return false, err
		}
	}
	for len(b.Rows) < g && h.next < len(h.pending) {
		b.Rows = append(b.Rows, h.pending[h.next])
		h.next++
	}
	return len(b.Rows) > 0, nil
}

// fillPending pulls one probe child batch and runs group-prefetched
// probe passes over it, materializing matches into the output ring.
// Child batches are at most G rows by the engine's batch rule, so one
// batch is one pass; oversized batches are strip-mined defensively.
func (h *simHashJoin) fillPending() error {
	h.pending = h.pending[:0]
	h.next = 0
	h.outSlot = 0
	ok, err := h.probeChild.NextBatch(&h.in)
	if err != nil {
		return err
	}
	if !ok {
		// Right outer resolves its unmatched build rows only once the
		// whole probe stream has run: sweep them into pending before
		// declaring the stream done (NextBatch drains pending first).
		if h.jt == plan.RightOuter && !h.swept {
			h.swept = true
			h.sweepUnmatchedBuild()
		}
		h.done = true
		return nil
	}
	g := h.prober.BatchSize()
	rows := h.in.Rows
	for lo := 0; lo < len(rows); lo += g {
		hi := min(lo+g, len(rows))
		h.batch = h.batch[:0]
		for _, r := range rows[lo:hi] {
			h.batch = append(h.batch, core.ProbeTuple{Addr: r.Addr, Len: int(r.Len), Code: r.Code})
		}
		if h.jt == plan.Inner {
			h.prober.ProbeBatch(h.batch, h.emitMatch)
			continue
		}
		h.probeStripTyped()
	}
	return nil
}

// probeStripTyped runs one group-prefetched pass over h.batch with the
// join type's match semantics layered over the inner prober: the core
// prober only reports matches, so per-row outcomes (unmatched-left
// emission, semi dedup, anti inversion) are reconstructed from a strip-
// local match bitmap keyed by probe address — addresses are unique
// within a strip, so Addr -> index is a bijection.
func (h *simHashJoin) probeStripTyped() {
	n := len(h.batch)
	if cap(h.matched) < n {
		h.matched = make([]bool, n)
	} else {
		h.matched = h.matched[:n]
		clear(h.matched)
	}
	if h.jt != plan.RightOuter {
		if h.addrIdx == nil {
			h.addrIdx = make(map[arena.Addr]int, n)
		}
		clear(h.addrIdx)
		for i, pt := range h.batch {
			h.addrIdx[pt.Addr] = i
		}
	}
	var emit func(arena.Addr, int, core.ProbeTuple)
	switch h.jt {
	case plan.LeftOuter:
		emit = func(b arena.Addr, bl int, pt core.ProbeTuple) {
			h.matched[h.addrIdx[pt.Addr]] = true
			h.emitMatch(b, bl, pt)
		}
	case plan.RightOuter:
		emit = func(b arena.Addr, bl int, pt core.ProbeTuple) {
			h.matchedBuild[b] = struct{}{}
			h.emitMatch(b, bl, pt)
		}
	case plan.LeftSemi:
		// First match wins; further matches of the same probe row are
		// suppressed by its strip bit.
		emit = func(_ arena.Addr, _ int, pt core.ProbeTuple) {
			if i := h.addrIdx[pt.Addr]; !h.matched[i] {
				h.matched[i] = true
				h.emitProbeOnly(pt)
			}
		}
	case plan.LeftAnti:
		emit = func(_ arena.Addr, _ int, pt core.ProbeTuple) {
			h.matched[h.addrIdx[pt.Addr]] = true
		}
	}
	h.prober.ProbeBatch(h.batch, emit)
	switch h.jt {
	case plan.LeftOuter:
		for i, pt := range h.batch {
			if !h.matched[i] {
				h.emitNullBuild(pt)
			}
		}
	case plan.LeftAnti:
		for i, pt := range h.batch {
			if !h.matched[i] {
				h.emitProbeOnly(pt)
			}
		}
	}
}

// allocOut hands out the next output ring slot, growing on demand.
func (h *simHashJoin) allocOut() arena.Addr {
	if h.outSlot >= len(h.out) {
		h.out = append(h.out, h.m.Alloc(uint64(h.outWidth), 8))
	}
	dst := h.out[h.outSlot]
	h.outSlot++
	return dst
}

func (h *simHashJoin) emitMatch(build arena.Addr, buildLen int, probe core.ProbeTuple) {
	dst := h.allocOut()
	h.m.Copy(dst, build, buildLen)
	h.m.Copy(dst+arena.Addr(buildLen), probe.Addr, probe.Len)
	h.pending = append(h.pending, Row{Addr: dst, Len: int32(h.outWidth), Code: probe.Code})
}

func (h *simHashJoin) emitProbeOnly(probe core.ProbeTuple) {
	dst := h.allocOut()
	h.m.Copy(dst, probe.Addr, probe.Len)
	h.pending = append(h.pending, Row{Addr: dst, Len: int32(h.outWidth), Code: probe.Code})
}

// emitNullBuild emits an unmatched probe row with the build columns
// null-padded (all-zero bytes, so the row's leading key reads 0). Code
// is left 0: consumers recompute it from the leading key on demand,
// which keeps both backends' codes identical for padded rows.
func (h *simHashJoin) emitNullBuild(probe core.ProbeTuple) {
	dst := h.allocOut()
	nullPadSim(h.m, dst, h.buildWidth)
	h.m.Copy(dst+arena.Addr(h.buildWidth), probe.Addr, probe.Len)
	h.pending = append(h.pending, Row{Addr: dst, Len: int32(h.outWidth)})
}

// sweepUnmatchedBuild walks the build relation in storage order and
// emits every tuple no probe batch matched, probe columns null-padded.
func (h *simHashJoin) sweepUnmatchedBuild() {
	for pi := 0; pi < h.rel.NPages(); pi++ {
		pg := h.rel.Page(pi)
		for si := 0; si < pg.NSlots(); si++ {
			addr, n := pg.TupleAddr(si)
			if _, ok := h.matchedBuild[addr]; ok {
				continue
			}
			dst := h.allocOut()
			h.m.Copy(dst, addr, n)
			nullPadSim(h.m, dst+arena.Addr(h.buildWidth), h.probeWidth)
			h.pending = append(h.pending, Row{Addr: dst, Len: int32(h.outWidth)})
		}
	}
}

// nullPadSim zero-fills n bytes at dst as one timed store — the null
// half of an outer join's padded output rows.
func nullPadSim(m *vmem.Mem, dst arena.Addr, n int) {
	clear(m.A.Bytes(dst, uint64(n)))
	m.S.Write(dst, n)
}

// Close closes both children exactly once: the build child is normally
// closed during Open (after materialization), the probe child here.
func (h *simHashJoin) Close() {
	if !h.buildClosed {
		h.buildChild.Close()
		h.buildClosed = true
	}
	if !h.probeClosed {
		h.probeChild.Close()
		h.probeClosed = true
	}
}

// simHashAggregate is the group-by pipeline breaker: Open drains the
// child (or uses its base relation directly when it is a plain scan),
// aggregates with the configured scheme, and stages one 24-byte row per
// group; NextBatch deals them out G at a time.
type simHashAggregate struct {
	m          *vmem.Mem
	child      Operator
	childRel   *storage.Relation // non-nil: child is a plain scan
	childWidth int
	valueOff   int
	groups     int
	scheme     core.Scheme
	params     core.Params

	rows        []Row
	next        int
	childClosed bool
}

func newSimHashAggregate(m *vmem.Mem, child Operator, childRel *storage.Relation,
	childWidth, valueOff, groups int, scheme core.Scheme, params core.Params) *simHashAggregate {
	return &simHashAggregate{
		m: m, child: child, childRel: childRel, childWidth: childWidth,
		valueOff: valueOff, groups: groups, scheme: scheme, params: params,
	}
}

func (ha *simHashAggregate) Open() error {
	rel := ha.childRel
	if rel == nil {
		var err error
		rel, err = materializeSim(ha.m, ha.child, ha.childWidth)
		ha.childClosed = true
		if err != nil {
			return err
		}
	} else {
		ha.child.Close()
		ha.childClosed = true
	}
	scheme := ha.scheme
	if scheme == core.SchemeCombined {
		scheme = core.SchemeGroup
	}
	res := core.AggregateAt(ha.m, rel, ha.groups, ha.valueOff, scheme, ha.params)
	ha.rows = ha.rows[:0]
	m := ha.m
	res.Each(func(key uint32, count, sum uint64) {
		addr := m.Alloc(AggTupleWidth, 8)
		m.S.Write(addr, AggTupleWidth)
		m.A.PutU32(addr, key)
		m.A.PutU64(addr+8, count)
		m.A.PutU64(addr+16, sum)
		ha.rows = append(ha.rows, Row{Addr: addr, Len: AggTupleWidth, Code: hash.CodeU32(key)})
	})
	ha.next = 0
	return nil
}

func (ha *simHashAggregate) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	batch := ha.params.G
	if batch < 1 {
		batch = core.DefaultParams().G
	}
	for len(b.Rows) < batch && ha.next < len(ha.rows) {
		b.Rows = append(b.Rows, ha.rows[ha.next])
		ha.next++
	}
	return len(b.Rows) > 0, nil
}

// Close closes the child exactly once — drained children were already
// closed during Open (the former per-tuple operator leaked this).
func (ha *simHashAggregate) Close() {
	if !ha.childClosed {
		ha.child.Close()
		ha.childClosed = true
	}
}
