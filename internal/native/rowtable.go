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
// row and the table becomes a flat directory of chain heads:
//
//	row :=  next_row_ptr | null_map | hash_code | key+payload
//	        8 bytes        4 bytes    4 bytes     width bytes
//
// Probes walk the chain comparing hash codes and keys in-row — one
// dependent load per chain step instead of two — and matches hand the
// caller the serialized row bytes directly. The null_map slot is all
// zeros today (inner join) and reserves the layout for outer/semi/anti
// joins, where a bitmap of NULL key columns must travel with the row.
//
// The layout also unlocks a concurrent build: each worker serializes
// the rows of its own page range (each row's bytes are written exactly
// once, by one worker) and publishes them into the shared directory
// with a compare-and-swap on the chain head, in the same pass (see
// buildPages). Chain order then depends on CAS timing, so a
// concurrently built table equals a serially built one as a multiset
// of rows per bucket — which is exactly the join-output contract
// (matches are unordered across workers already).
//
// Rows live in one Go-heap slab addressed by byte offset, with offset 0
// reserved as the nil chain terminator. Keeping the slab off the bump
// arena is deliberate: a finished table can outlive the query that
// built it (see BuildSide), while arena windows are reclaimed the
// moment their query releases. A table that does not outlive its query
// is recycled instead: whoever built it through BuildRelation, and can
// prove no prober is left, hands it back with BuildSide.Release, and
// the next build's Reset reuses the slab as it is — every row byte is
// overwritten, only the directory is cleared. Nobody else may recycle:
// a handle that was shared has probers its builder cannot see.

const (
	// rowHdrSize is the fixed per-row header: next_row_ptr (8) +
	// null_map (4) + hash_code (4). The serialized key+payload follows.
	rowHdrSize = 16
	rowNullOff = 8
	rowCodeOff = 12
	rowKeyOff  = 16

	// rowSlabPad keeps row offset 0 unused so it can mean "end of chain".
	rowSlabPad = 8

	// Reset shrinks a slab or directory only when its capacity exceeds
	// rowShrinkFactor times the new need and the floor below; a table
	// bouncing between similar sizes keeps its allocation.
	rowShrinkFactor = 4
	rowSlabFloor    = 1 << 12 // bytes
	rowDirFloor     = 1 << 9  // directory slots
)

// RowTable is the v2 native hash table: serialized rows chained through
// next_row_ptr from a directory of bucket heads. Bucket numbers come
// from the hash code's bits above the radix bits consumed by the
// partitioner, so partitioning does not starve the table's index
// distribution.
type RowTable struct {
	rows    []byte   // row slab; offset 0 is the nil sentinel
	dir     []uint64 // bucket heads: row offsets, 0 = empty
	width   int      // serialized key+payload bytes per row
	rowSize int      // rowHdrSize + width
	nRows   int
	shift   uint   // radix bits consumed by the partitioner
	mask    uint32 // len(dir)-1
}

// Reset re-sizes and clears the table for nRows build tuples of width
// serialized bytes each, reusing the slab and directory across
// partition pairs. Capacities far above the new need are released, so
// one skewed pair does not pin its peak allocation for the whole join.
func (t *RowTable) Reset(nRows, width int, shift uint) {
	nb := 1 << uint(bits.Len(uint(max(nRows, 1)-1)))
	if nb <= cap(t.dir) && cap(t.dir) <= max(rowShrinkFactor*nb, rowDirFloor) {
		t.dir = t.dir[:nb]
		clear(t.dir)
	} else {
		t.dir = make([]uint64, nb)
	}
	t.width = width
	t.rowSize = rowHdrSize + width
	t.nRows = nRows
	need := rowSlabPad + nRows*t.rowSize
	if need <= cap(t.rows) && cap(t.rows) <= max(rowShrinkFactor*need, rowSlabFloor) {
		t.rows = t.rows[:need]
	} else {
		t.rows = make([]byte, need)
	}
	t.shift = shift
	t.mask = uint32(nb - 1)
}

// NRows returns the row count the table was Reset for.
func (t *RowTable) NRows() int { return t.nRows }

// Width returns the serialized key+payload bytes per row.
func (t *RowTable) Width() int { return t.width }

// Bytes returns the table's resident footprint: row slab plus directory.
func (t *RowTable) Bytes() int { return len(t.rows) + 8*len(t.dir) }

// bucket maps a hash code to its directory slot.
func (t *RowTable) bucket(code uint32) uint32 { return (code >> t.shift) & t.mask }

// rowOff returns the slab offset of row i.
func (t *RowTable) rowOff(i int) uint64 { return uint64(rowSlabPad + i*t.rowSize) }

// putRow serializes row i: a zero null_map, the hash code, and the
// tuple's key+payload bytes. next_row_ptr is left untouched; insertion
// writes it before publishing.
func (t *RowTable) putRow(i int, code uint32, tuple []byte) {
	off := t.rowOff(i)
	row := t.rows[off : off+uint64(t.rowSize)]
	binary.LittleEndian.PutUint32(row[rowNullOff:], 0)
	binary.LittleEndian.PutUint32(row[rowCodeOff:], code)
	copy(row[rowKeyOff:], tuple)
}

// buildPages is the one-pass build over a page range of a relation whose
// first tuple is row number row: each tuple's slot is read once — tuple
// offset and the hash code memoized there (paper section 7.1) — its
// bytes are serialized behind a zero null_map and that code, and the
// row is linked into the directory a little later, while its header is
// still in L1. The scheme sets how much later, which is the paper's
// build-loop prefetch distance applied to the directory slot: Group
// prefetches the slots of G rows as it writes them and then publishes
// the G; Pipelined publishes row i-D after writing row i; Baseline
// publishes each row as written, without a prefetch.
//
// Page ranges of distinct morsels hold disjoint rows, so with shared
// set (CAS publish) any number of buildPages calls may run at once; no
// call reads a row another wrote, so there is no barrier between
// serializing and publishing. With one owner the publish is plain
// stores in row order: byte for byte BuildSerial's table. The page walk
// is eachSlot's, written out: a closure call per tuple measured 4-15 %
// on a 60k-row build.
func (t *RowTable) buildPages(data []byte, pages []arena.Addr, pageSize, row int, scheme Scheme, g, d int, shared bool) {
	batch, step := 1, 1 // publish step rows once batch are pending
	switch scheme {
	case Group:
		batch, step = g, g
	case Pipelined:
		batch = d + 1
	}
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
				prefetchT0(unsafe.Pointer(&t.dir[t.bucket(code)]))
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
// directory: store the bucket's current head into the row's
// next_row_ptr, then CAS the head to the row. The next write is plain —
// the row is invisible to other workers until the CAS lands, and probes
// start only after the build has returned.
func (t *RowTable) casPublishRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		off := t.rowOff(i)
		code := binary.LittleEndian.Uint32(t.rows[off+rowCodeOff:])
		slot := &t.dir[t.bucket(code)]
		for {
			head := atomic.LoadUint64(slot)
			binary.LittleEndian.PutUint64(t.rows[off:], head)
			if atomic.CompareAndSwapUint64(slot, head, off) {
				break
			}
		}
	}
}

// insertSerialRange is casPublishRange's single-owner fast path: plain loads
// and stores, same chain discipline (new rows prepend, so chains hold
// later-inserted rows first).
func (t *RowTable) insertSerialRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		off := t.rowOff(i)
		code := binary.LittleEndian.Uint32(t.rows[off+rowCodeOff:])
		b := t.bucket(code)
		binary.LittleEndian.PutUint64(t.rows[off:], t.dir[b])
		t.dir[b] = off
	}
}

// BuildSerial serializes and inserts all entries on the calling
// goroutine — the morsel-worker path, where each worker owns its table
// outright. The scheme applies the paper's build-loop restructuring to
// the directory-slot accesses: Group prefetches a G-batch of slots
// before its inserts, Pipelined keeps a slot prefetch D inserts ahead.
func (t *RowTable) BuildSerial(data []byte, entries []Entry, scheme Scheme, g, d int) {
	n := len(entries)
	w := uint64(t.width)
	for i := range entries {
		base := entries[i].Ref - arena.Base
		t.putRow(i, entries[i].Code, data[base:base+w])
	}
	switch scheme {
	case Group:
		for lo := 0; lo < n; lo += g {
			hi := lo + g
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				prefetchT0(unsafe.Pointer(&t.dir[t.bucket(entries[i].Code)]))
			}
			t.insertSerialRange(lo, hi)
		}
	case Pipelined:
		for i := 0; i < n; i++ {
			if nx := i + d; nx < n {
				prefetchT0(unsafe.Pointer(&t.dir[t.bucket(entries[nx].Code)]))
			}
			t.insertSerialRange(i, i+1)
		}
	default:
		t.insertSerialRange(0, n)
	}
}

// LookupRows calls fn for every row in code's bucket whose stored hash
// code equals code, passing the row's serialized key+payload bytes.
// Exported for tests and the fuzz oracle; the measured probe loops in
// join.go inline this walk with prefetching.
func (t *RowTable) LookupRows(code uint32, fn func(row []byte)) {
	w := uint64(t.width)
	for off := t.dir[t.bucket(code)]; off != 0; {
		next := binary.LittleEndian.Uint64(t.rows[off:])
		if binary.LittleEndian.Uint32(t.rows[off+rowCodeOff:]) == code {
			fn(t.rows[off+rowKeyOff : off+rowKeyOff+w])
		}
		off = next
	}
}
