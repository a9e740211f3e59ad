package core

import (
	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/memsim"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
)

// Hash-based group-by aggregation — the paper's conclusion singles it
// out as a direct beneficiary of the same techniques ("we believe that
// our techniques can improve other hash-based algorithms such as
// hash-based group-by and aggregation algorithms"). Each input tuple is
// hashed on its key and folded into a per-group accumulator. The
// dependent reference chain per tuple is bucket header -> hash cell
// array -> accumulator record (k = 3), the same shape as probing, with
// an upsert twist: a tuple for an unseen group inserts a new cell and
// record, which requires the build-side busy-flag protection once
// processing is reorganized.
//
// Accumulator record layout (32 bytes, cache-line aligned pairs):
//
//	+0  u32 group key
//	+8  u64 count
//	+16 u64 sum (of the 4-byte value at tuple offset 4)
const (
	aggRecSize  = 32
	aggOffKey   = 0
	aggOffCount = 8
	aggOffSum   = 16

	// CostAggUpdate is the ALU work of folding one tuple into a record.
	CostAggUpdate = 4
)

// AggResult reports an aggregation run.
type AggResult struct {
	NGroups int
	Stats   memsim.Stats

	table hash.Table
	mem   *vmem.Mem
}

// Each iterates over (key, count, sum) per group. Untimed.
func (r AggResult) Each(fn func(key uint32, count, sum uint64)) {
	a := r.mem.A
	for b := 0; b < r.table.NBuckets; b++ {
		h := r.table.HeaderAddr(b)
		count := a.U32(h + hash.HOffCount)
		if count == 0 {
			continue
		}
		emit := func(rec arena.Addr) {
			fn(a.U32(rec+aggOffKey), a.U64(rec+aggOffCount), a.U64(rec+aggOffSum))
		}
		emit(a.U64(h + hash.HOffTuple0))
		if count > 1 {
			cells := a.U64(h + hash.HOffCells)
			for j := 0; j < int(count-1); j++ {
				emit(a.U64(hash.CellAddr(cells, j) + hash.CellOffTuple))
			}
		}
	}
}

// aggregator carries one run's state.
type aggregator struct {
	m        *vmem.Mem
	input    *storage.Relation
	table    hash.Table
	valueOff int
	nGroups  int
}

// Aggregate groups input by join key, computing count and sum of the
// 4-byte value at tuple offset 4, under the given scheme (any of
// baseline, simple, group, or software-pipelined prefetching).
// expectedGroups sizes the hash table.
func Aggregate(m *vmem.Mem, input *storage.Relation, expectedGroups int, scheme Scheme, params Params) AggResult {
	return AggregateAt(m, input, expectedGroups, 4, scheme, params)
}

// AggScratchBytes bounds the arena bytes AggregateAt allocates when it
// folds groups groups into a table sized for expectedGroups: the chained
// table and one record a group.
func AggScratchBytes(expectedGroups, groups int) uint64 {
	return tableBytes(hash.SizeFor(expectedGroups, 1), groups) + uint64(groups)*aggRecSize
}

// AggregateAt is Aggregate with an explicit byte offset of the 4-byte
// summed value within each tuple (Aggregate assumes it directly follows
// the key).
func AggregateAt(m *vmem.Mem, input *storage.Relation, expectedGroups, valueOff int, scheme Scheme, params Params) AggResult {
	if valueOff < 4 || input.Schema.FixedWidth() < valueOff+4 {
		panic("core: aggregation value offset outside the tuple")
	}
	params = params.normalized()
	ag := &aggregator{
		m:        m,
		input:    input,
		valueOff: valueOff,
		table:    hash.NewTable(m.A, hash.SizeFor(expectedGroups, 1)),
	}
	pre := m.S.Stats()
	switch scheme {
	case SchemeBaseline, SchemeSimple:
		ag.runBaseline(scheme == SchemeSimple)
	case SchemeGroup:
		ag.runGroup(params.G)
	case SchemePipelined:
		ag.runPipelined(params.D)
	default:
		panic("core: unsupported aggregation scheme")
	}
	return AggResult{
		NGroups: ag.nGroups,
		Stats:   m.S.Stats().Sub(pre),
		table:   ag.table,
		mem:     m,
	}
}

// readKeyValue loads a tuple's key and 4-byte value (sequential page
// data) and computes its hash code and bucket.
func (ag *aggregator) readKeyValue(page, slot arena.Addr) (key, value, code uint32, header arena.Addr) {
	m := ag.m
	m.S.Read(slot, storage.SlotSize)
	off := m.A.U16(slot + storage.SlotOffOffset)
	tuple := page + arena.Addr(off)
	m.S.Read(tuple, 4)
	key = m.A.U32(tuple)
	m.S.Read(tuple+arena.Addr(ag.valueOff), 4)
	value = m.A.U32(tuple + arena.Addr(ag.valueOff))
	m.Compute(CostHashKey)
	code = hash.CodeU32(key)
	m.Compute(CostMod)
	header = ag.table.HeaderAddr(hash.BucketOf(code, ag.table.NBuckets))
	return key, value, code, header
}

// upsert finds or creates the group's record and folds the value in.
// The bucket's cache state is whatever the caller arranged; all accesses
// are timed.
func (ag *aggregator) upsert(header arena.Addr, key, value, code uint32) {
	m := ag.m
	a := m.A
	m.S.Read(header, 32)
	m.Compute(CostVisitHeader)
	count := a.U32(header + hash.HOffCount)

	if count > 0 {
		if a.U32(header+hash.HOffCode0) == code {
			rec := a.U64(header + hash.HOffTuple0)
			if ag.foldIfMatch(rec, key, value) {
				return
			}
		}
		if count > 1 {
			cells := a.U64(header + hash.HOffCells)
			m.S.Read(cells, int(count-1)*hash.CellSize)
			for j := 0; j < int(count-1); j++ {
				c := hash.CellAddr(cells, j)
				m.Compute(CostVisitCell)
				if a.U32(c+hash.CellOffCode) == code {
					if ag.foldIfMatch(a.U64(c+hash.CellOffTuple), key, value) {
						return
					}
				}
			}
		}
	}
	ag.insertGroup(header, key, value, code, count)
}

// foldIfMatch updates the record when its group key equals key.
func (ag *aggregator) foldIfMatch(rec arena.Addr, key, value uint32) bool {
	m := ag.m
	m.S.Read(rec, 4)
	m.Compute(CostCompare)
	if m.A.U32(rec+aggOffKey) != key {
		return false
	}
	m.S.Read(rec+aggOffCount, 16)
	m.Compute(CostAggUpdate)
	m.S.Write(rec+aggOffCount, 16)
	m.A.PutU64(rec+aggOffCount, m.A.U64(rec+aggOffCount)+1)
	m.A.PutU64(rec+aggOffSum, m.A.U64(rec+aggOffSum)+uint64(value))
	return true
}

// insertGroup allocates a record for a new group and links a cell to it.
// The header has already been visited.
func (ag *aggregator) insertGroup(header arena.Addr, key, value, code uint32, count uint32) {
	m := ag.m
	a := m.A
	rec := m.Alloc(aggRecSize, 32)
	m.S.Write(rec, aggRecSize)
	a.PutU32(rec+aggOffKey, key)
	a.PutU64(rec+aggOffCount, 1)
	a.PutU64(rec+aggOffSum, uint64(value))
	ag.nGroups++

	if count == 0 {
		m.S.Write(header, 16)
		a.PutU32(header+hash.HOffCode0, code)
		a.PutU64(header+hash.HOffTuple0, rec)
		a.PutU32(header+hash.HOffCount, 1)
		return
	}
	j := &joiner{m: m, table: ag.table}
	j.appendCellTimed(header, code, rec)
}

// runBaseline is one upsert per tuple.
func (ag *aggregator) runBaseline(simple bool) {
	m := ag.m
	cur := newCursor(ag.input)
	for {
		page, slot, ok := cur.next(m, simple)
		if !ok {
			return
		}
		m.Compute(CostLoop)
		key, value, code, header := ag.readKeyValue(page, slot)
		ag.upsert(header, key, value, code)
	}
}

// aggState carries one tuple across the group-prefetching stages.
type aggState struct {
	key, value, code uint32
	header           arena.Addr

	count   uint32
	cells   arena.Addr
	rec     arena.Addr // matched record, 0 if not yet found
	pending bool       // structural insert planned (bucket busy-held)
	active  bool
}

// runGroup is group-prefetched aggregation. Stages mirror probing
// (header -> cells -> record) with the build-side busy flag guarding
// structural inserts: a tuple that finds no matching group marks the
// bucket busy in stage 2 and inserts in stage 3; a tuple that meets a
// busy bucket anywhere is delayed to the group boundary (its group may
// be created by an earlier tuple of the same batch).
func (ag *aggregator) runGroup(g int) {
	m := ag.m
	a := m.A
	states := make([]aggState, g)
	delayed := make([]int, 0, g)
	cur := newCursor(ag.input)

	for {
		// Stage 0: read key+value, hash, prefetch header.
		n := 0
		for n < g {
			page, slot, ok := cur.next(m, true)
			if !ok {
				break
			}
			st := &states[n]
			m.Compute(CostLoop + CostStateGroup)
			st.key, st.value, st.code, st.header = ag.readKeyValue(page, slot)
			st.active, st.pending, st.rec, st.cells = true, false, 0, 0
			m.Prefetch(st.header)
			n++
		}
		if n == 0 {
			return
		}
		delayed = delayed[:0]

		// Stage 1: visit headers; prefetch the inline record or the cell
		// array; busy buckets are delayed outright.
		for i := 0; i < n; i++ {
			st := &states[i]
			m.Compute(CostStateGroup)
			m.S.Read(st.header, 32)
			m.Compute(CostVisitHeader)
			if a.U32(st.header+hash.HOffBusy) != 0 {
				delayed = append(delayed, i)
				st.active = false
				continue
			}
			st.count = a.U32(st.header + hash.HOffCount)
			if st.count > 0 && a.U32(st.header+hash.HOffCode0) == st.code {
				st.rec = a.U64(st.header + hash.HOffTuple0)
				m.Prefetch(st.rec)
			}
			if st.count > 1 {
				st.cells = a.U64(st.header + hash.HOffCells)
				m.PrefetchRange(st.cells, int(st.count-1)*hash.CellSize)
			}
		}

		// Stage 2: scan cell arrays for tuples without an inline match;
		// prefetch matched records; claim the bucket for misses.
		for i := 0; i < n; i++ {
			st := &states[i]
			if !st.active {
				continue
			}
			m.Compute(CostStateGroup)
			if st.rec == 0 && st.cells != 0 {
				m.S.Read(st.cells, int(st.count-1)*hash.CellSize)
				for j := 0; j < int(st.count-1); j++ {
					c := hash.CellAddr(st.cells, j)
					m.Compute(CostVisitCell)
					if a.U32(c+hash.CellOffCode) == st.code {
						st.rec = a.U64(c + hash.CellOffTuple)
						m.Prefetch(st.rec)
						break
					}
				}
			}
			if st.rec == 0 {
				// No group with this hash code: plan a structural insert
				// and hold the bucket so later tuples of this batch
				// (possibly the same new group) wait for it.
				if a.U32(st.header+hash.HOffBusy) != 0 {
					delayed = append(delayed, i)
					st.active = false
					continue
				}
				m.S.Write(st.header+hash.HOffBusy, 4)
				a.PutU32(st.header+hash.HOffBusy, 1)
				st.pending = true
			}
		}

		// Stage 3: fold values into records; perform planned inserts.
		// A hash-code match can still be a different key (filter false
		// positive): fall back to the full upsert path.
		for i := 0; i < n; i++ {
			st := &states[i]
			if !st.active {
				continue
			}
			m.Compute(CostStateGroup)
			switch {
			case st.pending:
				ag.insertGroup(st.header, st.key, st.value, st.code, a.U32(st.header+hash.HOffCount))
				m.S.Write(st.header+hash.HOffBusy, 4)
				a.PutU32(st.header+hash.HOffBusy, 0)
			case ag.foldIfMatch(st.rec, st.key, st.value):
			default:
				ag.upsert(st.header, st.key, st.value, st.code)
			}
		}

		// Group boundary: delayed tuples run the plain upsert on settled,
		// cache-warm buckets.
		for _, i := range delayed {
			st := &states[i]
			m.Compute(CostStateGroup)
			ag.upsert(st.header, st.key, st.value, st.code)
		}

		if n < g {
			return
		}
	}
}
