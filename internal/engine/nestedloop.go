package engine

// Nested-loop join: the planner's strategy for tiny build sides, where
// building a hash table costs more than it saves (see plan.Choose and
// the crossover BenchmarkJoinCrossover calibrates). The build side is
// loaded once into a flat key column; each probe row then scans it
// linearly — no hash codes, no directory, no prefetching, which is
// exactly why it wins below the crossover: the whole build side is a
// couple of cache lines. One operator serves both backends; on Sim
// every data access is timed, on Native it is plain memory.

import (
	"hashjoin/internal/arena"
	"hashjoin/internal/core"
	"hashjoin/internal/hash"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"

	"encoding/binary"
)

type nestedLoopJoin struct {
	m          *vmem.Mem    // non-nil: Sim backend, accesses timed
	a          *arena.Arena // Native backend arena
	data       []byte       // Native backing bytes (nil on Sim)
	buildChild Operator
	probeChild Operator
	buildRel   *storage.Relation // non-nil: build child is a plain scan
	report     *Report
	jt         plan.JoinType
	buildWidth int
	probeWidth int
	outWidth   int
	batch      int

	buildAddrs   []arena.Addr
	buildKeys    []uint32
	buildMatched []bool // right outer

	out     []arena.Addr // output ring, grown on demand
	outSlot int
	pending []Row
	next    int
	in      Batch
	done    bool
	swept   bool

	buildClosed bool
	probeClosed bool
}

func newNestedLoopJoin(cfg Config, build, probe Operator, buildRel *storage.Relation,
	jt plan.JoinType, buildWidth, probeWidth int) *nestedLoopJoin {
	outWidth := buildWidth + probeWidth
	if jt.ProbeOnly() {
		outWidth = probeWidth
	}
	nl := &nestedLoopJoin{
		a: cfg.A, buildChild: build, probeChild: probe, buildRel: buildRel,
		report: cfg.Report, jt: jt,
		buildWidth: buildWidth, probeWidth: probeWidth,
		outWidth: outWidth, batch: cfg.batchSize(),
	}
	if cfg.Backend == Sim {
		nl.m = cfg.Mem
	}
	return nl
}

func (nl *nestedLoopJoin) Open() error {
	rel := nl.buildRel
	if rel == nil {
		var err error
		if nl.m != nil {
			rel, err = materializeSim(nl.m, nl.buildChild, nl.buildWidth)
		} else {
			rel, err = materializeNative(nl.a, nl.buildChild, nl.buildWidth)
		}
		nl.buildClosed = true
		if err != nil {
			return err
		}
	} else {
		nl.buildChild.Close()
		nl.buildClosed = true
	}
	if nl.m == nil {
		nl.data = nl.a.Data()
	}
	// Load the build side once: tuple addresses plus a flat key column,
	// so the per-probe scan touches contiguous memory.
	nl.buildAddrs = nl.buildAddrs[:0]
	nl.buildKeys = nl.buildKeys[:0]
	for pi := 0; pi < rel.NPages(); pi++ {
		pg := rel.Page(pi)
		for si := 0; si < pg.NSlots(); si++ {
			addr, _ := pg.TupleAddr(si)
			nl.buildAddrs = append(nl.buildAddrs, addr)
			nl.buildKeys = append(nl.buildKeys, nl.readKey(addr))
		}
	}
	if nl.jt == plan.RightOuter {
		nl.buildMatched = make([]bool, len(nl.buildAddrs))
	}
	if nl.report != nil {
		nl.report.JoinFanout = 1
	}
	if err := nl.probeChild.Open(); err != nil {
		return err
	}
	nl.probeClosed = false
	nl.out = nl.out[:0]
	nl.pending = nl.pending[:0]
	nl.next = 0
	nl.done = false
	nl.swept = false
	return nil
}

func (nl *nestedLoopJoin) NextBatch(b *Batch) (bool, error) {
	b.Reset()
	for nl.next >= len(nl.pending) {
		if nl.done {
			return false, nil
		}
		if err := nl.fillPending(); err != nil {
			return false, err
		}
	}
	for len(b.Rows) < nl.batch && nl.next < len(nl.pending) {
		b.Rows = append(b.Rows, nl.pending[nl.next])
		nl.next++
	}
	return len(b.Rows) > 0, nil
}

func (nl *nestedLoopJoin) fillPending() error {
	nl.pending = nl.pending[:0]
	nl.next = 0
	nl.outSlot = 0
	ok, err := nl.probeChild.NextBatch(&nl.in)
	if err != nil {
		return err
	}
	if !ok {
		if nl.jt == plan.RightOuter && !nl.swept {
			nl.swept = true
			nl.sweepUnmatchedBuild()
		}
		nl.done = true
		return nil
	}
	for i := range nl.in.Rows {
		nl.joinProbeRow(nl.in.Rows[i])
	}
	return nil
}

// joinProbeRow scans the key column for one probe row and emits per the
// join type's contract (same output shapes as the hash strategies).
func (nl *nestedLoopJoin) joinProbeRow(r Row) {
	key := nl.readKey(r.Addr)
	found := false
	for i, bk := range nl.buildKeys {
		if nl.m != nil {
			nl.m.Compute(core.CostCompare)
		}
		if bk != key {
			continue
		}
		found = true
		switch nl.jt {
		case plan.LeftSemi:
			nl.emitProbeOnly(r, key)
			return // first match wins
		case plan.LeftAnti:
			return
		case plan.RightOuter:
			nl.buildMatched[i] = true
			nl.emitPair(nl.buildAddrs[i], r, key)
		default: // Inner, LeftOuter
			nl.emitPair(nl.buildAddrs[i], r, key)
		}
	}
	if !found {
		switch nl.jt {
		case plan.LeftOuter:
			nl.emitNullBuild(r)
		case plan.LeftAnti:
			nl.emitProbeOnly(r, key)
		}
	}
}

// sweepUnmatchedBuild emits every build row no probe row matched, probe
// columns null-padded (right outer, after the probe stream ends).
func (nl *nestedLoopJoin) sweepUnmatchedBuild() {
	for i, addr := range nl.buildAddrs {
		if nl.buildMatched[i] {
			continue
		}
		dst := nl.allocOut()
		nl.copyBytes(dst, addr, nl.buildWidth)
		nl.zeroBytes(dst+arena.Addr(nl.buildWidth), nl.probeWidth)
		nl.pending = append(nl.pending, Row{
			Addr: dst, Len: int32(nl.outWidth), Code: hash.CodeU32(nl.buildKeys[i])})
	}
}

func (nl *nestedLoopJoin) emitPair(build arena.Addr, r Row, key uint32) {
	dst := nl.allocOut()
	nl.copyBytes(dst, build, nl.buildWidth)
	nl.copyBytes(dst+arena.Addr(nl.buildWidth), r.Addr, int(r.Len))
	nl.pending = append(nl.pending, Row{Addr: dst, Len: int32(nl.outWidth), Code: hash.CodeU32(key)})
}

func (nl *nestedLoopJoin) emitProbeOnly(r Row, key uint32) {
	dst := nl.allocOut()
	nl.copyBytes(dst, r.Addr, int(r.Len))
	nl.pending = append(nl.pending, Row{Addr: dst, Len: int32(nl.outWidth), Code: hash.CodeU32(key)})
}

func (nl *nestedLoopJoin) emitNullBuild(r Row) {
	dst := nl.allocOut()
	nl.zeroBytes(dst, nl.buildWidth)
	nl.copyBytes(dst+arena.Addr(nl.buildWidth), r.Addr, int(r.Len))
	nl.pending = append(nl.pending, Row{Addr: dst, Len: int32(nl.outWidth), Code: hash.CodeU32(0)})
}

func (nl *nestedLoopJoin) allocOut() arena.Addr {
	if nl.outSlot >= len(nl.out) {
		var addr arena.Addr
		if nl.m != nil {
			addr = nl.m.Alloc(uint64(nl.outWidth), 8)
		} else {
			addr = nl.a.Alloc(uint64(nl.outWidth), 8)
		}
		nl.out = append(nl.out, addr)
	}
	dst := nl.out[nl.outSlot]
	nl.outSlot++
	return dst
}

func (nl *nestedLoopJoin) readKey(addr arena.Addr) uint32 {
	if nl.m != nil {
		return nl.m.ReadU32(addr)
	}
	return binary.LittleEndian.Uint32(nl.data[addr-arena.Base:])
}

func (nl *nestedLoopJoin) copyBytes(dst, src arena.Addr, n int) {
	if nl.m != nil {
		nl.m.Copy(dst, src, n)
		return
	}
	copy(nl.data[dst-arena.Base:dst-arena.Base+uint64(n)], nl.data[src-arena.Base:])
}

func (nl *nestedLoopJoin) zeroBytes(dst arena.Addr, n int) {
	if nl.m != nil {
		nullPadSim(nl.m, dst, n)
		return
	}
	clear(nl.data[dst-arena.Base : dst-arena.Base+uint64(n)])
}

// Close closes both children exactly once (the build child is normally
// closed during Open).
func (nl *nestedLoopJoin) Close() {
	if !nl.buildClosed {
		nl.buildChild.Close()
		nl.buildClosed = true
	}
	if !nl.probeClosed {
		nl.probeChild.Close()
		nl.probeClosed = true
	}
}
