package core

import (
	"fmt"

	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/memsim"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
)

// JoinResult reports the outcome of joining one build/probe partition
// pair: functional results plus the per-phase simulated time breakdown.
type JoinResult struct {
	NOutput int
	KeySum  uint64

	// Output holds the materialized output relation when JoinPair was
	// called with keep=true; nil otherwise.
	Output *storage.Relation

	BuildStats memsim.Stats
	ProbeStats memsim.Stats
}

// Cycles returns the total simulated cycles of both join sub-phases.
func (r JoinResult) Cycles() uint64 { return r.BuildStats.Total() + r.ProbeStats.Total() }

// Stats returns the combined breakdown.
func (r JoinResult) Stats() memsim.Stats {
	s := r.BuildStats
	s.Busy += r.ProbeStats.Busy
	s.DCacheStall += r.ProbeStats.DCacheStall
	s.TLBStall += r.ProbeStats.TLBStall
	s.OtherStall += r.ProbeStats.OtherStall
	return s
}

// joiner carries the state of one partition-pair join.
type joiner struct {
	m     *vmem.Mem
	build *storage.Relation
	probe *storage.Relation
	table hash.Table

	scheme Scheme
	params Params

	buildLen int // fixed build tuple width
	probeLen int
	out      *OutWriter
}

// JoinPair joins one build partition with one probe partition using the
// given scheme, as in the paper's join-phase experiments (Figures
// 10-13). nPartitions is used only to size the hash table relatively
// prime to the partition count; pass 1 when joining standalone
// partitions. keep retains output tuples for validation.
func JoinPair(m *vmem.Mem, build, probe *storage.Relation, scheme Scheme, params Params, nPartitions int, keep bool) JoinResult {
	if build.Schema.HasVar() || probe.Schema.HasVar() {
		panic("core: join phase requires fixed-width schemas")
	}
	if scheme == SchemeCombined {
		panic("core: SchemeCombined applies to the partition phase only")
	}
	params = params.normalized()
	nb := hash.SizeFor(build.NTuples, max(nPartitions, 1))
	j := &joiner{
		m:        m,
		build:    build,
		probe:    probe,
		table:    hash.NewTable(m.A, nb),
		scheme:   scheme,
		params:   params,
		buildLen: build.Schema.FixedWidth(),
		probeLen: probe.Schema.FixedWidth(),
	}
	outSchema := storage.JoinedSchema(build.Schema, probe.Schema)
	outPage := build.PageSize
	if need := outSchema.FixedWidth() + storage.PageHeaderSize + storage.SlotSize; need > outPage {
		outPage = need
	}
	j.out = NewOutWriter(m, outPage, outSchema, keep)

	var r JoinResult
	pre := m.S.Stats()
	switch scheme {
	case SchemeBaseline, SchemeSimple:
		j.buildBaseline()
	case SchemeGroup:
		j.buildGroup()
	case SchemePipelined:
		j.buildPipelined()
	default:
		panic(fmt.Sprintf("core: unknown scheme %v", scheme))
	}
	mid := m.S.Stats()
	r.BuildStats = mid.Sub(pre)

	switch scheme {
	case SchemeBaseline, SchemeSimple:
		j.probeBaseline()
	case SchemeGroup:
		j.probeGroup()
	case SchemePipelined:
		j.probePipelined()
	}
	j.out.Close()
	r.ProbeStats = m.S.Stats().Sub(mid)

	r.NOutput = j.out.NOutput
	r.KeySum = j.out.KeySum
	r.Output = j.out.Result
	return r
}

// cursor streams the tuples of a relation in storage order, performing
// the timed per-page header read and, for every prefetching scheme, the
// whole-page prefetch issued after each disk page read. (Simple
// prefetching consists of exactly this; group and software-pipelined
// prefetching layer the staged hash-table prefetches on top of it, which
// is why the paper reports them as additional speedup over simple.)
type cursor struct {
	rel      *storage.Relation
	pageIdx  int
	slotIdx  int
	nslots   int
	pageAddr arena.Addr
}

func newCursor(rel *storage.Relation) cursor {
	return cursor{rel: rel, pageIdx: -1}
}

// next advances to the next tuple's slot. It returns the page base and
// slot address, or ok=false at the end of the relation.
func (c *cursor) next(m *vmem.Mem, simple bool) (page, slot arena.Addr, ok bool) {
	for c.pageIdx < 0 || c.slotIdx >= c.nslots {
		c.pageIdx++
		if c.pageIdx >= c.rel.NPages() {
			return 0, 0, false
		}
		c.pageAddr = c.rel.Pages[c.pageIdx]
		if simple {
			// Simple prefetching: fetch the entire input page right
			// after the disk read, ahead of the tuple loop.
			m.PrefetchRange(c.pageAddr, c.rel.PageSize)
		}
		c.nslots = int(m.ReadU16(storage.NSlotsAddr(c.pageAddr)))
		c.slotIdx = 0
	}
	slot = storage.SlotAddr(c.pageAddr, c.rel.PageSize, c.slotIdx)
	c.slotIdx++
	return c.pageAddr, slot, true
}

// readSlot performs the timed load of a slot entry, returning the tuple
// address, length, and memoized hash code (section 7.1 reuse).
func readSlot(m *vmem.Mem, page, slot arena.Addr) (tuple arena.Addr, length int, code uint32) {
	m.S.Read(slot, storage.SlotSize)
	off := m.A.U16(slot + storage.SlotOffOffset)
	length = int(m.A.U16(slot + storage.SlotOffLength))
	code = m.A.U32(slot + storage.SlotOffHash)
	return page + arena.Addr(off), length, code
}

// slotCode reads a tuple's slot and yields its hash code: memoized from
// the slot by default (section 7.1), or re-read and re-hashed from the
// key when Params.RecomputeHash is set (ablation).
func (j *joiner) slotCode(page, slot arena.Addr) (tuple arena.Addr, length int, code uint32) {
	tuple, length, code = readSlot(j.m, page, slot)
	if j.params.RecomputeHash {
		key := j.m.ReadU32(tuple)
		j.m.Compute(CostHashKey)
		code = hash.CodeU32(key)
	}
	return tuple, length, code
}

// --- Baseline (and simple-prefetching) build ---

// buildBaseline inserts every build tuple, one hash table visit at a
// time, exactly as GRACE does. SchemeSimple differs only in the cursor's
// page prefetch.
func (j *joiner) buildBaseline() {
	m := j.m
	simple := j.scheme == SchemeSimple
	cur := newCursor(j.build)
	for {
		page, slot, ok := cur.next(m, simple)
		if !ok {
			return
		}
		m.Compute(CostLoop)
		tuple, _, code := j.slotCode(page, slot)
		m.Compute(CostMod)
		b := hash.BucketOf(code, j.table.NBuckets)
		j.insertTimed(b, code, tuple)
	}
}

// insertTimed is one complete, timed hash-table insert (the dependent
// reference chain of hash table building).
func (j *joiner) insertTimed(b int, code uint32, tuple arena.Addr) {
	m := j.m
	h := j.table.HeaderAddr(b)
	m.S.Read(h, 16) // count + inline cell
	m.Compute(CostVisitHeader)
	a := m.A
	count := a.U32(h + hash.HOffCount)
	if count == 0 {
		m.S.Write(h, 16)
		a.PutU32(h+hash.HOffCode0, code)
		a.PutU64(h+hash.HOffTuple0, tuple)
		a.PutU32(h+hash.HOffCount, 1)
		return
	}
	m.S.Read(h+hash.HOffCells, 12) // cells + cap (same header line)
	cells := a.U64(h + hash.HOffCells)
	capacity := a.U32(h + hash.HOffCap)
	over := count - 1
	if cells == 0 || over == capacity {
		cells = j.growCells(h, cells, over, capacity)
	}
	c := hash.CellAddr(cells, int(over))
	m.S.Write(c, hash.CellSize)
	a.PutU32(c+hash.CellOffCode, code)
	a.PutU64(c+hash.CellOffTuple, tuple)
	m.S.Write(h+hash.HOffCount, 4)
	a.PutU32(h+hash.HOffCount, count+1)
}

// tableBytes bounds the arena bytes a chained table of buckets headers
// takes once it holds entries entries: the header block, and for each
// entry past its bucket's first at most four cells of the doubling
// overflow arrays growCells allocates (InitialCellCap, then twice the
// last, so a bucket's arrays sum to less than twice its final capacity
// and never exceed four cells an overflow entry). 64 covers the header
// block's alignment.
func tableBytes(buckets, entries int) uint64 {
	return uint64(buckets*hash.HeaderSize+entries*4*hash.CellSize) + 64
}

// growCells allocates or doubles a bucket's overflow array, copying the
// existing cells (timed) and updating the header.
func (j *joiner) growCells(h arena.Addr, cells arena.Addr, over, capacity uint32) arena.Addr {
	m := j.m
	m.Compute(CostAllocCells)
	newCap := uint32(hash.InitialCellCap)
	if capacity > 0 {
		newCap = capacity * 2
	}
	newCells := m.Alloc(uint64(newCap)*hash.CellSize, 64)
	if cells != 0 && over > 0 {
		m.Copy(newCells, cells, int(over)*hash.CellSize)
	}
	m.S.Write(h+hash.HOffCells, 12)
	m.A.PutU64(h+hash.HOffCells, newCells)
	m.A.PutU32(h+hash.HOffCap, newCap)
	return newCells
}

// --- Baseline (and simple-prefetching) probe ---

// probeBaseline performs one hash table visit per probe tuple: compute
// bucket, visit header, visit cell array, visit matching build tuples.
func (j *joiner) probeBaseline() {
	m := j.m
	simple := j.scheme == SchemeSimple
	cur := newCursor(j.probe)
	for {
		page, slot, ok := cur.next(m, simple)
		if !ok {
			return
		}
		m.Compute(CostLoop)
		tuple, length, code := j.slotCode(page, slot)
		m.Compute(CostMod)
		b := hash.BucketOf(code, j.table.NBuckets)

		h := j.table.HeaderAddr(b)
		m.S.Read(h, 16)
		m.Compute(CostVisitHeader)
		a := m.A
		count := a.U32(h + hash.HOffCount)
		if count == 0 {
			continue
		}
		if a.U32(h+hash.HOffCode0) == code {
			j.compareAndEmit(a.U64(h+hash.HOffTuple0), tuple, length)
		}
		if count > 1 {
			m.S.Read(h+hash.HOffCells, 8)
			cells := a.U64(h + hash.HOffCells)
			for k := 0; k < int(count-1); k++ {
				c := hash.CellAddr(cells, k)
				m.S.Read(c, hash.CellSize)
				m.Compute(CostVisitCell)
				if a.U32(c+hash.CellOffCode) == code {
					j.compareAndEmit(a.U64(c+hash.CellOffTuple), tuple, length)
				}
			}
		}
	}
}

// compareAndEmit visits the candidate build tuple, compares real keys
// (the hash code was only a filter), and emits the output tuple on a
// match.
func (j *joiner) compareAndEmit(build arena.Addr, probe arena.Addr, probeLen int) {
	m := j.m
	m.S.Read(build, 4) // build key: the dependent random access
	m.S.Read(probe, 4) // probe key: sequential page data
	m.Compute(CostCompare)
	if m.A.U32(build) == m.A.U32(probe) {
		j.out.Emit(build, j.buildLen, probe, probeLen)
	}
}
