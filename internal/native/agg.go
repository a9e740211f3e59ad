package native

import (
	"math/bits"
	"unsafe"
)

// prefetchHeader hints the cache line holding a bucket header.
func prefetchHeader(h *header) { prefetchT0(unsafe.Pointer(h)) }

// Native hash aggregation — the extension the paper's conclusion
// proposes ("our techniques can improve other hash-based algorithms such
// as hash-based group-by and aggregation") running on real memory. The
// table keeps the paper's Figure 2 shape in a flat cache-line layout
// (16-byte headers, four per line, shared overflow slab), its cells
// referencing accumulator records in a separate slab. The
// record slab doubles as the group list: records are appended in
// first-seen order, so iteration is deterministic and needs no table
// walk.
//
// The per-tuple dependence chain is header -> overflow cells -> record,
// the same shape as probing with an upsert twist. Group prefetching
// batches the header fetches: for each G-tuple batch the header lines
// are prefetched in one pass and the upserts run against warm lines in a
// second. Unlike the simulator's aggregation, no busy flags are needed —
// native upserts within a batch complete in order, so a group created by
// one tuple is simply found by the next.

// header is one 16-byte bucket (four per 64-byte line): the count, the
// first cell inline, and the bucket's overflow array in the shared
// slab, so one prefetch of the header address covers all three. The
// array's capacity is implied by the count (growAgg).
type header struct {
	count  uint32 // cells in the bucket (inline cell included)
	code0  uint32 // inline cell: hash code
	tuple0 uint32 // inline cell: record index
	cells  uint32 // slab index of the overflow array; 0 = none
}

// cell is one overflow-slab entry. The slab is addressed by index, not
// pointer, so it can grow with append without invalidating references.
type cell struct {
	code uint32
	ref  uint32 // record index
}

// initialCellCap matches the simulator's hash.InitialCellCap. It must be
// a power of two: link infers a full overflow array from its count
// (growAgg), which holds only if every capacity is one.
const initialCellCap = 4

// Compile-time guard: the array is non-empty, and the assignment fails
// to compile, unless initialCellCap is a power of two.
var _ [0]struct{} = [initialCellCap & (initialCellCap - 1)]struct{}{}

// AggInput is one tuple of an aggregation batch: the memoized hash code
// of the group key, the key itself, and the 4-byte value folded into the
// group's sum.
type AggInput struct {
	Code  uint32
	Key   uint32
	Value uint32
}

// aggRec is one group's accumulator, with the code that re-buckets it
// when the table grows.
type aggRec struct {
	key   uint32
	code  uint32
	count uint64
	sum   uint64
}

// AggTable is the native flat group-by table. A bucket is the hash
// code's high bits: a table fed the partitions one worker of a
// radix-partitioned join claims — codes that share their low bits —
// still spreads over every bucket.
type AggTable struct {
	headers []header
	cells   []cell   // overflow slab; ref = record index
	recs    []aggRec // record slab, first-seen order; index 0 reserved
	shift   uint32   // bucket = code >> shift
}

// NewAggTable sizes a table for expectedGroups groups: the next power of
// two buckets, load factor <= 1.
func NewAggTable(expectedGroups int) *AggTable {
	t := &AggTable{}
	t.Reset(expectedGroups)
	return t
}

// Reset re-sizes and clears the table for reuse, keeping allocations
// when the new expectation is no larger. The expectation only sizes the
// table: one that sees more groups than buckets doubles its buckets.
func (t *AggTable) Reset(expectedGroups int) {
	if expectedGroups < 1 {
		expectedGroups = 1
	}
	t.clearBuckets(1 << uint(bits.Len(uint(expectedGroups-1))))
	if cap(t.recs) > 0 {
		t.recs = t.recs[:1]
	} else {
		t.recs = make([]aggRec, 1, 1+expectedGroups)
	}
}

// clearBuckets empties the table's nb buckets (a power of two) and its
// overflow slab; the records stay.
func (t *AggTable) clearBuckets(nb int) {
	if nb <= cap(t.headers) {
		t.headers = t.headers[:nb]
		clear(t.headers)
	} else {
		t.headers = make([]header, nb)
	}
	if cap(t.cells) > 0 {
		t.cells = t.cells[:1]
	} else {
		t.cells = make([]cell, 1, 1+nb/4)
	}
	t.shift = uint32(32 - bits.TrailingZeros(uint(nb)))
}

// NGroups returns the number of distinct groups seen.
func (t *AggTable) NGroups() int { return len(t.recs) - 1 }

func (t *AggTable) bucket(code uint32) uint32 { return code >> t.shift }

// Upsert folds one (key, value) into its group, creating the group on
// first sight. The hash code is only a filter: a code match still
// compares the record's key.
func (t *AggTable) Upsert(in AggInput) {
	h := &t.headers[t.bucket(in.Code)]
	if h.count > 0 {
		if h.code0 == in.Code {
			if r := &t.recs[h.tuple0]; r.key == in.Key {
				r.count++
				r.sum += uint64(in.Value)
				return
			}
		}
		for i := uint32(0); i < h.count-1; i++ {
			c := &t.cells[h.cells+i]
			if c.code == in.Code {
				if r := &t.recs[c.ref]; r.key == in.Key {
					r.count++
					r.sum += uint64(in.Value)
					return
				}
			}
		}
	}
	// New group: append a record and link a cell to it — or, once the
	// groups outnumber the buckets, double the buckets and re-link all.
	ref := uint32(len(t.recs))
	t.recs = append(t.recs, aggRec{key: in.Key, code: in.Code, count: 1, sum: uint64(in.Value)})
	if int(ref) <= len(t.headers) {
		t.link(h, in.Code, ref)
		return
	}
	t.clearBuckets(2 * len(t.headers))
	for ref := range t.recs[1:] {
		code := t.recs[ref+1].code
		t.link(&t.headers[t.bucket(code)], code, uint32(ref+1))
	}
}

// link adds a cell for record ref to bucket h.
func (t *AggTable) link(h *header, code, ref uint32) {
	if h.count == 0 {
		h.code0 = code
		h.tuple0 = ref
		h.count = 1
		return
	}
	over := h.count - 1
	if h.cells == 0 || over >= initialCellCap && over&(over-1) == 0 {
		t.growAgg(h, over)
	}
	t.cells[h.cells+over] = cell{code: code, ref: ref}
	h.count++
}

// growAgg allocates a bucket's overflow array in the slab, or doubles a
// full one — which it is when its over cells number initialCellCap or a
// larger power of two, the capacities it ever has.
func (t *AggTable) growAgg(h *header, over uint32) {
	newCap := uint32(initialCellCap)
	if h.cells != 0 {
		newCap = 2 * over
	}
	idx := uint32(len(t.cells))
	t.cells = append(t.cells, make([]cell, newCap)...)
	if h.cells != 0 {
		copy(t.cells[idx:idx+over], t.cells[h.cells:h.cells+over])
	}
	h.cells = idx
}

// UpsertBatch folds one batch of tuples into the table. Baseline
// processes each tuple's full chain in turn; Group and Pipelined batch
// the header prefetches g tuples at a time and run the upserts against
// warm lines (the software pipeline degenerates to the same two-pass
// shape here — an upsert's structural writes cannot be deferred without
// the busy-flag machinery, which native in-order batches make redundant).
func (t *AggTable) UpsertBatch(batch []AggInput, scheme Scheme, g int) {
	if scheme == Baseline || g < 2 {
		for i := range batch {
			t.Upsert(batch[i])
		}
		return
	}
	for lo := 0; lo < len(batch); lo += g {
		hi := lo + g
		if hi > len(batch) {
			hi = len(batch)
		}
		for i := lo; i < hi; i++ {
			prefetchHeader(&t.headers[t.bucket(batch[i].Code)])
		}
		for i := lo; i < hi; i++ {
			t.Upsert(batch[i])
		}
	}
}

// Each iterates the groups in first-seen order.
func (t *AggTable) Each(fn func(key uint32, count, sum uint64)) {
	for i := 1; i < len(t.recs); i++ {
		r := &t.recs[i]
		fn(r.key, r.count, r.sum)
	}
}
