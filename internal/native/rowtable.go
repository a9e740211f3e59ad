package native

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"hashjoin/internal/arena"
	"hashjoin/internal/storage"
)

// Hash table v2: compact row storage. Instead of a table of (code, ref)
// cells that sends every probe hit back through storage.Relation for
// the key, each build tuple is serialized once into a self-contained
// row:
//
//	row :=  link | hash_code | key+payload
//	        4 B    4 B         width bytes
//
// A row holds the tuple's first width bytes: the prefix the table's
// consumer reads, which is the whole tuple unless the builder narrows
// it — BuildRelation for a streaming table, Joiner.JoinStream for the
// pair tables, the spilled build pages and the chunk tables rebuilt
// from them — down to the 4-byte key, which the probe compares in the
// row. Matches hand out the row's width bytes, so a consumer reads a
// prefix of what it was handed whatever the width. The budget and every
// other sizing decision still charge the whole tuple (rowFootprint):
// they are made before the consumer is known. Only the spill tier's
// chunk arithmetic counts the narrow width its pages carry.
//
// and the table indexes the rows with an open-addressed directory of
// 4-byte slots, twice as many as rows (rounded up to a power of two):
//
//	slot := tag | row+1     (0 = empty)
//	        tag:   the hash code's bits above the home slot's bits
//	        row+1: the low bits.Len(nRows) bits
//
// The table names a row one way everywhere: row+1, a uint32 with 0
// meaning none — in a slot, in a row's link to the next row of its
// chain, in the probe's stage-1 result and, less one, as the index of
// the right-outer match bitmap. Only rowOff turns a row into bytes.
// A link names a row, not a byte, so 4 bytes cover every table the
// 4-byte slots can index, at any width.
//
// Each non-empty slot owns exactly one hash code; the rows of that code
// chain from it through their links, so a run of duplicate keys takes
// one slot. A code's slot is the first one, stepping linearly from its
// home slot, that is empty or carries its tag and heads a row of its
// code — the home slot and the tag together are the code's bits above
// the partitioner's radix bits, so a tag match on a slot of another
// code (a row of a displaced neighbour) is rare, and is confirmed
// against the row's stored code. This is the hash code beside the
// pointer of the paper's Figure 2 cell, moved into the directory: a
// probe scans its slots inside the prefetched directory line and loads
// only its own code's rows; a miss loads no row at all. The directory
// costs 4 B × nextpow2(2n), between 8 and 16 bytes a row: the directory
// share of rowFootprint, which every budget decision is sized by.
//
// Probes walk the chain comparing keys in-row — one dependent load per
// chain step — and matches hand the caller the serialized row bytes
// directly.
//
// The layout also unlocks a concurrent build: each worker serializes
// the rows of its own page range (each row's bytes are written exactly
// once, by one worker) and publishes them into the shared directory
// with a compare-and-swap on the code's slot, in the same pass (see
// buildPages). Which slot a code takes, and chain order, then depend on
// CAS timing, so a concurrently built table equals a serially built one
// as a multiset of rows per hash code — which is exactly the join-output
// contract (matches are unordered across workers already).
//
// Rows live in one Go-heap slab, row i at byte i × rowSize. Keeping
// the slab off the bump arena is deliberate: a finished table can
// outlive the query that built it (see BuildSide), while arena windows
// are reclaimed the moment their query releases. A table that does not
// outlive its query is recycled instead: whoever built it through
// BuildRelation, and can prove no prober is left, hands it back with
// BuildSide.Release, and the next build's Reset reuses the slab as it
// is — every row byte is overwritten, only the directory is cleared.
// Nobody else may recycle: a handle that was shared has probers its
// builder cannot see.

const (
	// rowHdrSize is the fixed per-row header: link (4, the next row of
	// the chain as row+1, 0 at its end) + hash_code (4). The serialized
	// key+payload follows.
	rowHdrSize = 8
	rowCodeOff = 4
	rowKeyOff  = 8

	// Reset shrinks a slab or directory only when its capacity exceeds
	// rowShrinkFactor times the new need and the floor below; a table
	// bouncing between similar sizes keeps its allocation.
	rowShrinkFactor = 4
	rowSlabFloor    = 1 << 12 // bytes
	rowDirFloor     = 1 << 10 // directory slots
)

// RowTable is the v2 native hash table: serialized rows chained through
// their links from an open-addressed directory of tagged slots, one
// slot per hash code. Home slots come from the hash code's bits above
// the radix bits consumed by the partitioner, so partitioning does not
// starve the table's index distribution.
type RowTable struct {
	rows     []byte   // row slab: row i at rowOff(i)
	dir      []uint32 // slots: tag | row+1, 0 = empty
	width    int      // serialized key+payload bytes per row
	rowSize  int      // rowHdrSize + width
	nRows    int
	shift    uint   // radix bits consumed by the partitioner
	tagShift uint   // shift + log2(len(dir)): code bits from here up are the tag
	rowBits  uint   // bits.Len(nRows): a slot's row+1 field
	rowMask  uint32 // 1<<rowBits - 1
	mask     uint32 // len(dir)-1
}

// Reset re-sizes and clears the table for nRows build tuples of width
// serialized bytes each, reusing the slab and directory across
// partition pairs. Capacities far above the new need are released, so
// one skewed pair does not pin its peak allocation for the whole join.
func (t *RowTable) Reset(nRows, width int, shift uint) { t.reset(nRows, width, shift, true) }

// reset is Reset; with shrink false it keeps every capacity the need
// fits. The spill leaf builds its later chunks so: its first table is
// budget-sized, so shrinking is decided once per pair, and a short last
// chunk does not free the slab the next spilled pair allocates again.
func (t *RowTable) reset(nRows, width int, shift uint, shrink bool) {
	// nextpow2(2·nRows) slots: at most half full, so every scan ends at
	// an empty slot within a few steps.
	nb := 2 << uint(bits.Len(uint(max(nRows, 1)-1)))
	if nb <= cap(t.dir) && (!shrink || cap(t.dir) <= max(rowShrinkFactor*nb, rowDirFloor)) {
		t.dir = t.dir[:nb]
		clear(t.dir)
	} else {
		t.dir = make([]uint32, nb)
	}
	t.width = width
	t.rowSize = rowHdrSize + width
	t.nRows = nRows
	need := nRows * t.rowSize
	if need <= cap(t.rows) && (!shrink || cap(t.rows) <= max(rowShrinkFactor*need, rowSlabFloor)) {
		t.rows = t.rows[:need]
	} else {
		t.rows = make([]byte, need)
	}
	t.shift = shift
	t.mask = uint32(nb - 1)
	t.tagShift = shift + uint(bits.TrailingZeros(uint(nb)))
	t.rowBits = uint(bits.Len(uint(nRows)))
	t.rowMask = 1<<t.rowBits - 1
}

// NRows returns the row count the table was Reset for.
func (t *RowTable) NRows() int { return t.nRows }

// Width returns the serialized key+payload bytes per row.
func (t *RowTable) Width() int { return t.width }

// Bytes returns the table's resident footprint: row slab plus directory.
func (t *RowTable) Bytes() int { return len(t.rows) + 4*len(t.dir) }

// home maps a hash code to the directory slot its scan starts at.
func (t *RowTable) home(code uint32) uint32 { return (code >> t.shift) & t.mask }

// tag returns the slot bits that name code: its bits above the home
// slot's, placed above the row field. The two widths never overlap,
// since log2(len(dir)) >= bits.Len(nRows).
func (t *RowTable) tag(code uint32) uint32 { return code >> t.tagShift << t.rowBits }

// rowOff returns the slab offset of row i: the one place a row becomes
// bytes. Slots and links name row i as i+1.
func (t *RowTable) rowOff(i uint32) uint64 { return uint64(i) * uint64(t.rowSize) }

// link returns the row after row+1 ref on its chain, as row+1, 0 at
// the chain's end.
func (t *RowTable) link(ref uint32) uint32 {
	return binary.LittleEndian.Uint32(t.rows[t.rowOff(ref-1):])
}

// codeOf returns the hash code stored in row+1 ref.
func (t *RowTable) codeOf(ref uint32) uint32 {
	return binary.LittleEndian.Uint32(t.rows[t.rowOff(ref-1)+rowCodeOff:])
}

// scan steps linearly from slot s to the first slot that is empty or
// carries tag tg, and returns it with the row+1 it heads (0 when
// empty). It reads only the directory: the probe's stage 1.
func (t *RowTable) scan(tg, s uint32) (uint32, uint32) {
	for {
		v := t.dir[s]
		if v == 0 {
			return s, 0
		}
		if v&^t.rowMask == tg {
			return s, v & t.rowMask
		}
		s = (s + 1) & t.mask
	}
}

// find is scan confirmed against the rows: it returns code's slot at or
// after s, and its chain head as row+1, or the empty slot that ends the
// run and 0. A tag match heading a row of another code is a collision,
// and the scan resumes past it.
func (t *RowTable) find(code, s uint32) (uint32, uint32) {
	tg := t.tag(code)
	for {
		var ref uint32
		if s, ref = t.scan(tg, s); ref == 0 || t.codeOf(ref) == code {
			return s, ref
		}
		s = (s + 1) & t.mask
	}
}

// putRow serializes row i: the hash code and the tuple's key+payload
// bytes. The link is left untouched; insertion writes it before
// publishing.
func (t *RowTable) putRow(i int, code uint32, tuple []byte) {
	off := t.rowOff(uint32(i))
	row := t.rows[off : off+uint64(t.rowSize)]
	binary.LittleEndian.PutUint32(row[rowCodeOff:], code)
	copy(row[rowKeyOff:], tuple)
}

// buildPages is the one-pass build over a page range of a relation whose
// first tuple is row number row: each tuple's slot is read once — tuple
// offset and the hash code memoized there (paper section 7.1) — its
// bytes are serialized behind that code, and the row is linked into
// the directory a little later, while its header is still in L1. The
// scheme sets how much later (publishSchedule).
//
// Page ranges of distinct morsels hold disjoint rows, so with shared
// set (CAS publish) any number of buildPages calls may run at once; a
// call reads another's row only after the CAS that published it, so
// there is no barrier between serializing and publishing. With one
// owner the publish is plain stores in row order: byte for byte
// BuildSerial's table. The page walk is written out, as in
// appendEntries: a closure call per tuple measured 4-15 % on a 60k-row
// build.
func (t *RowTable) buildPages(data []byte, pages []arena.Addr, pageSize, row int, scheme Scheme, g, d int, shared bool) {
	batch, step := publishSchedule(scheme, g, d)
	publish := t.insertSerialRange
	if shared {
		publish = t.casPublishRange
	}
	w, pub := uint64(t.width), row
	for _, page := range pages {
		base := page - arena.Base
		n := int(binary.LittleEndian.Uint16(data[base:]))
		slot := base + uint64(pageSize) - storage.SlotSize
		for ; n > 0; n-- {
			tuple := base + uint64(binary.LittleEndian.Uint16(data[slot+storage.SlotOffOffset:]))
			code := binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])
			slot -= storage.SlotSize

			t.putRow(row, code, data[tuple:tuple+w])
			if batch > 1 {
				prefetchT0(unsafe.Pointer(&t.dir[t.home(code)]))
			}
			if row++; row-pub == batch {
				publish(pub, pub+step)
				pub += step
			}
		}
	}
	publish(pub, row)
}

// casPublishRange publishes serialized rows [lo, hi) into the shared
// directory. Each row scans from its home slot to the first slot that
// is empty or owned by its code, stores that slot's head (0 if empty)
// into its link, and CASes the slot to itself. A lost CAS re-reads the
// same slot: a slot, once owned, keeps its code, and an empty one may
// have been taken by another code. The link write is plain — the row
// is invisible to other workers until the CAS lands, and probes start
// only after the build has returned.
func (t *RowTable) casPublishRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		off := t.rowOff(uint32(i))
		code := binary.LittleEndian.Uint32(t.rows[off+rowCodeOff:])
		tg := t.tag(code)
		mine := tg | uint32(i+1)
		for s := t.home(code); ; {
			cur := atomic.LoadUint32(&t.dir[s])
			if cur != 0 && (cur&^t.rowMask != tg || t.codeOf(cur&t.rowMask) != code) {
				s = (s + 1) & t.mask
				continue
			}
			binary.LittleEndian.PutUint32(t.rows[off:], cur&t.rowMask)
			if atomic.CompareAndSwapUint32(&t.dir[s], cur, mine) {
				break
			}
		}
	}
}

// insertSerialRange is casPublishRange's single-owner fast path: plain loads
// and stores, same slot and chain discipline (new rows prepend, so chains
// hold later-inserted rows first).
func (t *RowTable) insertSerialRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		t.insertSerial(i, t.codeOf(uint32(i+1)))
	}
}

// insertSerial links row i, whose hash code is code, into the directory
// with plain loads and stores.
func (t *RowTable) insertSerial(i int, code uint32) {
	s, head := t.find(code, t.home(code))
	binary.LittleEndian.PutUint32(t.rows[t.rowOff(uint32(i)):], head)
	t.dir[s] = t.tag(code) | uint32(i+1)
}

// publishSchedule is the paper's build-loop restructuring applied to
// the directory slot: once batch rows are written but not yet linked,
// the oldest step are. Group prefetches the slots of G rows as it writes
// them, then links the G; Pipelined links row i-D after writing row i;
// Baseline links each row as written, without a prefetch.
func publishSchedule(scheme Scheme, g, d int) (batch, step int) {
	switch scheme {
	case Group:
		return g, g
	case Pipelined:
		return d + 1, 1
	}
	return 1, 1
}

// BuildSerial serializes and inserts all entries on the calling
// goroutine — the morsel-worker path, where each worker owns its table
// outright — linking rows on buildPages' schedule (publishSchedule).
// Inserts take each row's code from its entry, not from the row the
// first pass wrote long before: the slot scan branches on the code, and
// waiting there for a slab miss serializes the inserts.
func (t *RowTable) BuildSerial(data []byte, entries []Entry, scheme Scheme, g, d int) {
	w := uint64(t.width)
	for i := range entries {
		base := entries[i].Ref - arena.Base
		t.putRow(i, entries[i].Code, data[base:base+w])
	}
	batch, step := publishSchedule(scheme, g, d)
	pub := 0
	for i := range entries {
		if batch > 1 {
			prefetchT0(unsafe.Pointer(&t.dir[t.home(entries[i].Code)]))
		}
		if i+1-pub == batch {
			for hi := pub + step; pub < hi; pub++ {
				t.insertSerial(pub, entries[pub].Code)
			}
		}
	}
	for ; pub < len(entries); pub++ {
		t.insertSerial(pub, entries[pub].Code)
	}
}

// LookupRows calls fn for every row of hash code code, passing the
// row's serialized key+payload bytes. Exported for tests and the fuzz
// oracle; the measured probe loops in join.go inline this walk with
// prefetching.
func (t *RowTable) LookupRows(code uint32, fn func(row []byte)) {
	w := uint64(t.width)
	_, ref := t.find(code, t.home(code))
	for ; ref != 0; ref = t.link(ref) {
		off := t.rowOff(ref-1) + rowKeyOff
		fn(t.rows[off : off+w])
	}
}
