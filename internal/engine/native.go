package engine

// Native backend: the batch operators run on real memory with real
// prefetches, reusing the native engine's radix partitioner, row-storage
// hash table, and PREFETCHT0 probe loops. A join compiles to one of two
// physical strategies: with Fanout <= 1 the probe side streams through
// one resident table a prefetch group at a time, its pages cut into
// morsels the workers share; with Fanout > 1 both sides are
// radix-partitioned and the partition pairs are the morsels. Under
// either, Open runs the whole join, every worker handing its matches to
// a sink of its own that the join's parent installed: a native
// aggregate's partial, Run's row counter, or — for a parent that pulls
// rows — the join's own row sink, whose rows NextBatch then hands out
// in batches of at most G.

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"

	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/native"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// nativeScan reads a relation's slot areas directly from the arena's
// backing bytes, yielding batches of up to batch rows.
type nativeScan struct {
	a     *arena.Arena
	rel   *storage.Relation
	batch int
	ctx   context.Context // nil: never cancelled

	pageIdx int
	slotIdx int
	nslots  int
	page    arena.Addr
}

func newNativeScan(a *arena.Arena, rel *storage.Relation, batch int) *nativeScan {
	return &nativeScan{a: a, rel: rel, batch: batch, pageIdx: -1}
}

func (s *nativeScan) Open() error { s.pageIdx = -1; s.slotIdx = 0; s.nslots = 0; return nil }

func (s *nativeScan) NextBatch(b *Batch) (bool, error) {
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
			s.nslots = int(s.a.U16(storage.NSlotsAddr(s.page)))
			s.slotIdx = 0
		}
		slot := storage.SlotAddr(s.page, s.rel.PageSize, s.slotIdx)
		s.slotIdx++
		b.Rows = append(b.Rows, Row{
			Addr: s.page + arena.Addr(s.a.U16(slot+storage.SlotOffOffset)),
			Code: s.a.U32(slot + storage.SlotOffHash),
			Len:  int32(s.a.U16(slot + storage.SlotOffLength)),
		})
	}
	return true, nil
}

func (s *nativeScan) Close() {}

// nativeFilter passes through rows whose key lies in [lo, hi].
type nativeFilter struct {
	a     *arena.Arena
	child Operator
	pred  Pred
	batch int

	in   Batch
	next int
	done bool
}

func newNativeFilter(a *arena.Arena, child Operator, pred Pred, batch int) *nativeFilter {
	return &nativeFilter{a: a, child: child, pred: pred, batch: batch}
}

func (f *nativeFilter) Open() error {
	if err := f.child.Open(); err != nil {
		return err
	}
	f.in.Reset()
	f.next = 0
	f.done = false
	return nil
}

func (f *nativeFilter) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	data := f.a.Data()
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
		k := binary.LittleEndian.Uint32(data[r.Addr-arena.Base:])
		if k >= f.pred.Lo && k <= f.pred.Hi {
			b.Rows = append(b.Rows, r)
		}
	}
	return len(b.Rows) > 0, nil
}

func (f *nativeFilter) Close() { f.child.Close() }

// materializePage is the page size of the relations an operator of
// either backend materializes a non-scan input into.
const materializePage = 8 << 10

// materializeNative drains op into a fresh relation of fixed width
// (plain byte copies, no timing) and closes op.
func materializeNative(a *arena.Arena, op Operator, width int) (*storage.Relation, error) {
	rel := storage.NewRelation(a, storage.KeyPayloadSchema(width), materializePage)
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	var b Batch
	for {
		ok, err := op.NextBatch(&b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return rel, nil
		}
		for i := range b.Rows {
			r := b.Rows[i]
			tup := a.Bytes(r.Addr, uint64(r.Len))
			code := r.Code
			if code == 0 {
				code = hash.Code(tup[:4])
			}
			rel.Append(tup, code)
		}
	}
}

// joinConfig maps the config onto the native joiner's for a join of
// type jt. The morsel join runs under it and the scratch estimator
// reads the spill tier's knobs through it, so a knob added to one
// cannot miss the other.
func (c Config) joinConfig(jt plan.JoinType) native.Config {
	return native.Config{
		Scheme:   NativeScheme(c.Scheme),
		JoinType: jt,
		G:        c.Params.G, D: c.Params.D,
		Fanout: c.Fanout, Workers: c.workers(),
		Pool: c.Pool, Tenant: c.Tenant, Weight: c.Weight,
		Arena:     c.A,
		MemBudget: c.MemBudget,
		SpillDir:  c.SpillDir, SpillWorkers: c.SpillWorkers, NoSpill: c.NoSpill,
		SpillPageSize: c.SpillPageSize,
		BudgetNow:     c.BudgetNow,
		Ctx:           c.Ctx,
	}
}

// emitSpan is one copy of writeMatch: output row bytes [dst, end) from
// offset src of the build row (side 0) or the probe tuple (side 1).
type emitSpan struct {
	dst, end, src int32
	side          uint8
}

// splitAtSeam turns spans of the logical build||probe row (the probe
// tuple alone when seam is 0) into per-side copies packed in order, a
// span that straddles the seam becoming two. Copies that continue one
// another on the same side are merged.
func splitAtSeam(spans []span, seam int) []emitSpan {
	var out []emitSpan
	var dst int32
	add := func(lo, hi int, side uint8) {
		if lo >= hi {
			return
		}
		src, n := int32(lo-seam*int(side)), int32(hi-lo)
		if k := len(out) - 1; k >= 0 && out[k].side == side && out[k].src+out[k].end-out[k].dst == src {
			out[k].end += n
		} else {
			out = append(out, emitSpan{dst: dst, end: dst + n, src: src, side: side})
		}
		dst += n
	}
	for _, s := range spans {
		add(s.lo, min(s.hi, seam), 0)
		add(max(s.lo, seam), s.hi, 1)
	}
	return out
}

// nativeHashJoin joins natively under one of two strategies (see the
// file comment). Open runs the whole join and returns once every worker
// has: worker w hands each match to sinkFor(w), which the join calls on
// the caller's goroutine before worker w starts. Both inputs are
// relations by then — a child that is not a plain scan is materialized
// first — and the probe runs on the workers: the streaming join's
// probers, or the partitioned join's pair joiners. A right-outer sweep
// into sink 0 follows.
//
// A native aggregate over the join installs its partials as sinkFor,
// and Run its row counter. With none installed — Collect, a join under
// another join, a test's raw NextBatch — Open installs the join's own
// row sink (joinRows), and NextBatch hands its rows out in windows of at
// most G. They carry the spans of the logical build||probe row the
// parent declared (Node.emitSpans), the whole row for a root, and live
// in the run's arena scope: such a parent holds the join's whole output
// there. The order rows arrive in is unspecified.
type nativeHashJoin struct {
	cfg        Config
	a          *arena.Arena
	data       []byte
	buildChild Operator
	probeChild Operator
	buildRel   *storage.Relation // non-nil: build child is a plain scan
	probeRel   *storage.Relation // non-nil: probe child is a plain scan
	buildWidth int
	probeWidth int
	emit       []emitSpan // writeMatch's copies
	outWidth   int        // their total: the emitted row width
	batch      int
	jt         plan.JoinType
	sinkFor    func(w int) func(build []byte, pref uint64)

	buildClosed bool
	probeClosed bool

	rows []Row // the join's own sink's rows, handed out by NextBatch
	next int
}

func newNativeHashJoin(cfg Config, build, probe Operator, buildRel, probeRel *storage.Relation,
	buildWidth, probeWidth int, jt plan.JoinType, spans []span) *nativeHashJoin {
	seam := buildWidth
	if jt.ProbeOnly() {
		seam = 0 // the logical row is the probe tuple alone
	}
	return &nativeHashJoin{
		cfg: cfg, a: cfg.A, buildChild: build, probeChild: probe,
		buildRel: buildRel, probeRel: probeRel,
		buildWidth: buildWidth, probeWidth: probeWidth,
		emit: splitAtSeam(spans, seam), outWidth: spansWidth(spans),
		batch: cfg.batchSize(), jt: jt,
	}
}

// resolveBuild returns the build side as a relation, materializing a
// non-scan child; either way the build child ends closed.
func (h *nativeHashJoin) resolveBuild() (*storage.Relation, error) {
	h.buildClosed = true
	return resolveInput(h.a, h.buildChild, h.buildRel, h.buildWidth)
}

// resolveProbe is resolveBuild for the probe side, which both
// strategies probe on their workers.
func (h *nativeHashJoin) resolveProbe() (*storage.Relation, error) {
	h.probeClosed = true
	return resolveInput(h.a, h.probeChild, h.probeRel, h.probeWidth)
}

// resolveInput returns rel, the relation a plain-scan child reads, or
// materializes child when rel is nil; either way child ends closed.
func resolveInput(a *arena.Arena, child Operator, rel *storage.Relation, width int) (*storage.Relation, error) {
	if rel != nil {
		child.Close()
		return rel, nil
	}
	return materializeNative(a, child, width)
}

func (h *nativeHashJoin) Open() error {
	h.data = h.a.Data()
	h.buildClosed, h.probeClosed = false, false
	h.rows, h.next = nil, 0
	if h.sinkFor != nil {
		return h.run(h.sinkFor)
	}
	own := joinRows{h: h}
	if err := h.run(own.sinkFor); err != nil {
		return err
	}
	h.rows = own.all()
	return nil
}

// run runs the whole join into sinkFor's sinks.
func (h *nativeHashJoin) run(sinkFor func(w int) func([]byte, uint64)) error {
	if h.cfg.Build != nil {
		// A pre-built immutable BuildSide replaces the whole build
		// phase: the build child is never opened, nothing is serialized
		// or inserted, and the table's memory is accounted to whoever
		// owns the handle (the service's build cache), not this query's
		// budget. It is shared, may outlive any query, and is never
		// released here.
		h.buildChild.Close()
		h.buildClosed = true
		probe, err := h.resolveProbe()
		if err != nil {
			return err
		}
		return h.runStream(h.cfg.Build, probe, sinkFor)
	}
	rel, err := h.resolveBuild()
	if err != nil {
		return err
	}
	probe, err := h.resolveProbe()
	if err != nil {
		return err
	}
	// Budget governor: a streaming join keeps the whole build side
	// resident in one table; when that footprint exceeds MemBudget,
	// degrade to the partitioned morsel strategy, whose fan-out (and,
	// if a pair is still oversized, recursive re-partitioning) bounds
	// the per-pair resident set the way the paper's GRACE partition
	// phase does.
	if h.cfg.Fanout > 1 || h.cfg.MemBudget > 0 &&
		native.BuildFootprint(rel.NTuples, h.buildWidth) > h.cfg.MemBudget {
		return h.runMorsel(rel, probe, sinkFor)
	}
	bs, err := native.BuildRelation(rel, h.buildWidth, native.BuildConfig{
		Scheme: NativeScheme(h.cfg.Scheme), G: h.cfg.Params.G, D: h.cfg.Params.D,
		Workers: h.cfg.workers(),
		Pool:    h.cfg.Pool, Tenant: h.cfg.Tenant, Weight: h.cfg.Weight,
	})
	if err != nil {
		return err
	}
	// runStream returns after every prober and the sweep, and the sinks
	// copy what they keep of a build row (writeMatch), so nothing reads
	// this query's table once it returns: hand it back for recycling.
	defer bs.Release()
	return h.runStream(bs, probe, sinkFor)
}

// runStream runs the streaming strategy over bs, built here or handed
// in: the probe relation is cut into page-range morsels
// (native.ProbeStream) that up to workers probers share, every one
// probing bs with a prober of its own into a sink of its own. The
// right-outer sweep runs into sink 0 after the last probe.
func (h *nativeHashJoin) runStream(bs *native.BuildSide, probe *storage.Relation, sinkFor func(w int) func([]byte, uint64)) error {
	if rep := h.cfg.Report; rep != nil {
		rep.JoinFanout = 1
	}
	scheme, g, d := NativeScheme(h.cfg.Scheme), h.cfg.Params.G, h.cfg.Params.D
	stream := bs.NewProbeStream(h.cfg.Ctx, probe, h.jt, scheme, g, d)
	if rep := h.cfg.Report; rep != nil {
		rep.MorselsExecuted = stream.Morsels()
	}
	sinks := make([]func([]byte, uint64), max(1, min(h.cfg.workers(), stream.Morsels())))
	for w := range sinks {
		sinks[w] = sinkFor(w)
	}
	if err := h.runProbers(stream, sinks); err != nil {
		return err
	}
	stream.EmitUnmatchedBuild(sinks[0])
	return nil
}

// runProbers probes stream's morsels on len(sinks) workers of their own,
// worker w emitting into sinks[w], and returns once every one has. It
// submits one Run per morsel, so a shared pool interleaves this stream
// with its neighbours morsel by morsel; the pool's morsel index names
// the morsel a Run probes.
func (h *nativeHashJoin) runProbers(stream *native.ProbeStream, sinks []func([]byte, uint64)) error {
	ws := make([]*native.StreamWorker, len(sinks))
	for w := range ws {
		ws[w] = stream.NewWorker()
	}
	return native.RunMorsels(h.cfg.Pool, &native.MorselJob{
		Tenant: h.cfg.Tenant, Weight: h.cfg.Weight,
		N: stream.Morsels(), Slots: len(sinks),
		Run: func(slot, m int) (err error) {
			defer arena.RecoverOOM(&err)
			return ws[slot].ProbeMorsel(m, sinks[slot])
		},
	})
}

// NextBatch hands out the next window of at most G of the join's own
// sink's rows.
func (h *nativeHashJoin) NextBatch(b *Batch) (bool, error) {
	n := min(h.batch, len(h.rows)-h.next)
	if n <= 0 {
		return false, nil
	}
	b.Rows = h.rows[h.next : h.next+n : h.next+n]
	h.next += n
	return true, nil
}

// writeMatch materializes one output row at dst per the join type's
// sink contract: build bytes come straight from the row table's
// serialized row (the build relation is never touched on the probe
// path); a nil build means no build row (probe-only output, or a
// left-outer null pad), probeRef 0 means no probe row (a right-outer
// sweep row, probe half null-padded). A missing side's spans are
// zeroed.
func (h *nativeHashJoin) writeMatch(dst arena.Addr, build []byte, pref uint64) Row {
	d := h.data[dst-arena.Base:]
	sides := [2][]byte{build, nil}
	if pref != 0 {
		sides[1] = h.data[pref-arena.Base:]
	}
	for _, s := range h.emit {
		if src := sides[s.side&1]; src != nil { // &1: index provably in range
			copy(d[s.dst:s.end], src[s.src:])
		} else {
			clear(d[s.dst:s.end])
		}
	}
	key := binary.LittleEndian.Uint32(d)
	return Row{Addr: dst, Len: int32(h.outWidth), Code: hash.CodeU32(key)}
}

func (h *nativeHashJoin) Close() {
	h.rows = nil
	if !h.buildClosed {
		h.buildChild.Close()
		h.buildClosed = true
	}
	if !h.probeClosed {
		h.probeChild.Close()
		h.probeClosed = true
	}
}

// joinerPool recycles the partitioned strategy's Joiners — partition
// entries, pair tables — across queries, as native's tablePool does row
// tables. sync.Pool drops a Joiner idle for two GC cycles.
var joinerPool = sync.Pool{New: func() any { return native.NewJoiner() }}

// runMorsel runs the native morsel join — radix partitioning, one pair
// joiner per worker — into sinkFor's sinks, on a pooled Joiner. A Joiner
// an error or a panic left mid-join is not handed back.
func (h *nativeHashJoin) runMorsel(buildRel, probeRel *storage.Relation, sinkFor func(w int) func([]byte, uint64)) error {
	jn := joinerPool.Get().(*native.Joiner)
	res, err := jn.JoinStream(buildRel, probeRel, h.cfg.joinConfig(h.jt), sinkFor)
	if err != nil {
		return err
	}
	joinerPool.Put(jn)
	if rep := h.cfg.Report; rep != nil {
		rep.JoinFanout, rep.JoinRecursionDepth, rep.MorselsExecuted =
			res.NPartitions, res.RecursionDepth, res.PairsJoined
		rep.Report = res.Report
	}
	return nil
}

// joinRows is a join's own sink, for a parent that pulls its rows:
// worker w writes each match into arena rows it allocates a chunk at a
// time (arena.Alloc is lock-free) and keeps their descriptors in a list
// of its own.
type joinRows struct {
	h     *nativeHashJoin
	parts []*joinRowsPart // by worker
}

// joinRowsPart is one worker's share of joinRows: its rows and the
// unwritten rest of its current chunk. The pad makes it 64 bytes, one
// per cache line, like aggPartial: every match writes it.
type joinRowsPart struct {
	rows      []Row
	free, end arena.Addr
	_         [24]byte
}

// rowChunk is about how many bytes of rows a worker of joinRows
// allocates at a time.
const rowChunk = 16 << 10

// sinkFor is worker w's row-writing sink.
func (s *joinRows) sinkFor(w int) func(build []byte, pref uint64) {
	for len(s.parts) <= w {
		s.parts = append(s.parts, new(joinRowsPart))
	}
	p, h := s.parts[w], s.h
	width := arena.Addr(h.outWidth)
	chunk := max(1, rowChunk/h.outWidth) * h.outWidth // whole rows
	return func(build []byte, pref uint64) {
		if p.free+width > p.end {
			p.free = h.a.Alloc(uint64(chunk), 8)
			p.end = p.free + arena.Addr(chunk)
		}
		p.rows = append(p.rows, h.writeMatch(p.free, build, pref))
		p.free += width
	}
}

// all returns every worker's rows in one list.
func (s *joinRows) all() []Row {
	var rows []Row
	for _, p := range s.parts {
		rows = append(rows, p.rows...)
	}
	return rows
}

// nativeHashAggregate is the native group-by pipeline breaker. Open
// folds its input into flat native AggTables (header prefetches batched
// per the scheme), one per worker feeding it: a native hash join child
// runs inside Open with one sink per join worker (sinkFor); any other
// child is pulled into one table. The tables
// then fold into one list in key order, which Groups takes whole;
// NextBatch stages one 24-byte row per group from it.
type nativeHashAggregate struct {
	cfg        Config
	a          *arena.Arena
	data       []byte
	child      Operator
	join       *nativeHashJoin // the child, when Open runs it into the partials
	childWidth int
	valueOff   int
	groups     int // expected groups

	parts       []*aggPartial // by worker
	gs          []Group       // the folded groups, nil for none
	rows        []Row         // gs staged, on the first NextBatch
	next        int
	batch       int
	childClosed bool
}

// aggPartial is one worker's share of a native aggregate: its private
// table and the inputs waiting for the table's next prefetch group.
// Partials live for one query. Recycling them through a sync.Pool was
// measured to cost peak RSS rather than save it: the pool keeps a
// partial per P alive between queries, and the GC's heap goal doubles
// whatever stays live (EXPERIMENTS.md, "Where part_agg's time goes").
//
// The pad makes a partial 64 bytes, the size class with one object per
// cache line: every row rewrites the in slice's header, and 32-byte
// partials allocated back to back put two workers' headers on one line.
type aggPartial struct {
	t  *native.AggTable
	in []native.AggInput
	_  [32]byte
}

func newNativeHashAggregate(cfg Config, child Operator, childWidth, valueOff, groups int) *nativeHashAggregate {
	if valueOff < 4 || childWidth < valueOff+4 {
		panic("engine: aggregation value offset outside the row")
	}
	ha := &nativeHashAggregate{
		cfg: cfg, a: cfg.A, child: child, childWidth: childWidth,
		valueOff: valueOff, groups: groups, batch: cfg.batchSize(),
	}
	if j, ok := child.(*nativeHashJoin); ok {
		ha.join, j.sinkFor = j, ha.sinkFor
	}
	return ha
}

func (ha *nativeHashAggregate) Open() error {
	ha.data = ha.a.Data()
	ha.parts, ha.gs, ha.rows, ha.next = nil, nil, ha.rows[:0], 0
	ha.childClosed = false
	if err := ha.child.Open(); err != nil {
		return err
	}
	if ha.join == nil {
		p := ha.partial(0, ha.groups)
		var b Batch
		for {
			ok, err := ha.child.NextBatch(&b)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			for _, r := range b.Rows {
				ha.add(p, r)
			}
		}
	}
	ha.child.Close()
	ha.childClosed = true
	ha.gs = ha.fold()
	return nil
}

// partial returns worker w's partial, making it, sized for groups, on
// first use.
func (ha *nativeHashAggregate) partial(w, groups int) *aggPartial {
	for len(ha.parts) <= w {
		ha.parts = append(ha.parts, &aggPartial{
			t:  native.NewAggTable(groups),
			in: make([]native.AggInput, 0, ha.batch),
		})
	}
	return ha.parts[w]
}

// sinkFor is the join's sink for worker w: writeMatch writes each match
// as the spans the aggregate declared into a row of the worker's own,
// and the row goes into the worker's partial.
func (ha *nativeHashAggregate) sinkFor(w int) func(build []byte, pref uint64) {
	// The join's workers share the groups out; a partial that sees more
	// than its share — every worker of a streaming join may see every
	// group — grows.
	p := ha.partial(w, (ha.groups+ha.cfg.workers()-1)/ha.cfg.workers())
	row := ha.a.Alloc(uint64(ha.childWidth), 8)
	return func(build []byte, pref uint64) { ha.add(p, ha.join.writeMatch(row, build, pref)) }
}

// add stages one input row's key and value in p, upserting them a
// prefetch group at a time.
func (ha *nativeHashAggregate) add(p *aggPartial, r Row) {
	base := r.Addr - arena.Base
	key := binary.LittleEndian.Uint32(ha.data[base:])
	code := r.Code
	if code == 0 {
		code = hash.CodeU32(key)
	}
	p.in = append(p.in, native.AggInput{
		Code:  code,
		Key:   key,
		Value: binary.LittleEndian.Uint32(ha.data[base+uint64(ha.valueOff):]),
	})
	if len(p.in) == ha.batch {
		p.t.UpsertBatch(p.in, NativeScheme(ha.cfg.Scheme), ha.batch)
		p.in = p.in[:0]
	}
}

// fold merges the partials into one group list in key order, each key
// once, and drops them. Partials of a partitioned join share at most
// key 0 (left outer's null pad), a streaming join's any key; one sort
// serves both, and it is the query's only one.
func (ha *nativeHashAggregate) fold() []Group {
	parts := ha.parts
	ha.parts = nil // the tables are garbage before the sort allocates
	n := 0
	for _, p := range parts {
		p.t.UpsertBatch(p.in, NativeScheme(ha.cfg.Scheme), ha.batch)
		n += p.t.NGroups()
	}
	if n == 0 {
		return nil
	}
	gs := make([]Group, 0, n)
	for _, p := range parts {
		p.t.Each(func(key uint32, count, sum uint64) {
			gs = append(gs, Group{Key: key, Count: count, Sum: sum})
		})
	}
	gs = sortGroups(gs)
	out := gs[:0]
	for _, g := range gs {
		if k := len(out) - 1; k >= 0 && out[k].Key == g.Key {
			out[k].Count += g.Count
			out[k].Sum += g.Sum
		} else {
			out = append(out, g)
		}
	}
	return out
}

// stage writes the groups as rows into one arena block.
func (ha *nativeHashAggregate) stage() {
	ha.rows = slices.Grow(ha.rows, len(ha.gs))
	addr := ha.a.Alloc(uint64(len(ha.gs))*AggTupleWidth, 8)
	for _, g := range ha.gs {
		ha.a.PutU32(addr, g.Key)
		ha.a.PutU64(addr+8, g.Count)
		ha.a.PutU64(addr+16, g.Sum)
		ha.rows = append(ha.rows, Row{Addr: addr, Len: AggTupleWidth, Code: hash.CodeU32(g.Key)})
		addr += AggTupleWidth
	}
}

func (ha *nativeHashAggregate) NextBatch(b *Batch) (bool, error) {
	if len(ha.rows) < len(ha.gs) {
		ha.stage()
	}
	b.Reset()
	for len(b.Rows) < ha.batch && ha.next < len(ha.rows) {
		b.Rows = append(b.Rows, ha.rows[ha.next])
		ha.next++
	}
	return len(b.Rows) > 0, nil
}

// sortedGroups hands Groups the folded list, which is its result as it
// stands: nothing staged, decoded or sorted again.
func (ha *nativeHashAggregate) sortedGroups() []Group { return ha.gs }

// Close closes the child exactly once (it is normally closed at the end
// of Open).
func (ha *nativeHashAggregate) Close() {
	if !ha.childClosed {
		ha.child.Close()
		ha.childClosed = true
	}
}

// joinCounter counts a native hash join root inside its workers. Run
// reads only a root's row count and the sum of each row's leading u32
// key, so it installs the counter's sinkFor before Open and the join's
// workers count their matches instead of writing rows: no writeMatch,
// no row crosses a goroutine.
type joinCounter struct {
	h     *nativeHashJoin
	parts []*joinCount // by worker
}

// joinCount is one worker's share of a counted join. The pad makes it
// 64 bytes, one per cache line, like aggPartial: every match writes it.
type joinCount struct {
	rows, keySum uint64
	_            [48]byte
}

// countJoin installs a fresh counter as h's sinkFor.
func countJoin(h *nativeHashJoin) *joinCounter {
	c := &joinCounter{h: h}
	h.sinkFor = c.sinkFor
	return c
}

// sinkFor is worker w's counting sink. The row it stands for leads with
// the probe tuple's key on a semi or anti join and with the build row's
// on every other — 0 for a left-outer null pad, which has no build row.
func (c *joinCounter) sinkFor(w int) func(build []byte, pref uint64) {
	for len(c.parts) <= w {
		c.parts = append(c.parts, new(joinCount))
	}
	n := c.parts[w]
	if c.h.jt.ProbeOnly() {
		data := c.h.data
		return func(_ []byte, pref uint64) {
			n.rows++
			n.keySum += uint64(binary.LittleEndian.Uint32(data[pref-arena.Base:]))
		}
	}
	return func(build []byte, _ uint64) {
		n.rows++
		if build != nil {
			n.keySum += uint64(binary.LittleEndian.Uint32(build))
		}
	}
}

// result sums the workers' counts.
func (c *joinCounter) result() (r Result) {
	for _, n := range c.parts {
		r.NRows += int(n.rows)
		r.KeySum += n.keySum
	}
	return r
}
