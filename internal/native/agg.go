package native

import (
	"math/bits"
	"unsafe"
)

// Native hash aggregation — the extension the paper's conclusion
// proposes ("our techniques can improve other hash-based algorithms such
// as hash-based group-by and aggregation") running on real memory. The
// table follows the row table's discipline (rowtable.go): a flat
// directory of chain heads, and records that carry their own chain link.
//
//	rec :=  next | code | key | count | sum
//
// The record slab doubles as the group list: records are appended in
// first-seen order, so iteration is deterministic and needs no table
// walk, and a link is a slab index, so the slab grows with append
// without invalidating one.
//
// The per-tuple dependence chain is directory slot -> records, the same
// shape as probing with an upsert twist. Group prefetching batches the
// slot fetches: for each G-tuple batch the slots are prefetched in one
// pass and the upserts run against warm lines in a second. Unlike the
// simulator's aggregation, no busy flags are needed — native upserts
// within a batch complete in order, so a group created by one tuple is
// simply found by the next.

// AggInput is one tuple of an aggregation batch: the memoized hash code
// of the group key, the key itself, and the 4-byte value folded into the
// group's sum.
type AggInput struct {
	Code  uint32
	Key   uint32
	Value uint32
}

// aggRec is one group's accumulator, chained to the next record of its
// bucket, with the code that filters the chain walk and re-chains the
// record when the directory grows.
type aggRec struct {
	next  uint32 // record index; 0 = end of chain
	code  uint32
	key   uint32
	count uint64
	sum   uint64
}

// AggTable is the native flat group-by table. A bucket is the hash
// code's high bits: a table fed the partitions one worker of a
// radix-partitioned join claims — codes that share their low bits —
// still spreads over every bucket.
type AggTable struct {
	dir   []uint32 // chain heads: record indexes, 0 = empty
	recs  []aggRec // record slab, first-seen order; index 0 reserved
	shift uint32   // bucket = code >> shift
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
	t.clearDir(1 << uint(bits.Len(uint(expectedGroups-1))))
	if cap(t.recs) > 0 {
		t.recs = t.recs[:1]
	} else {
		t.recs = make([]aggRec, 1, 1+expectedGroups)
	}
}

// clearDir empties the directory at nb buckets (a power of two); the
// records stay.
func (t *AggTable) clearDir(nb int) {
	if nb <= cap(t.dir) {
		t.dir = t.dir[:nb]
		clear(t.dir)
	} else {
		t.dir = make([]uint32, nb)
	}
	t.shift = uint32(32 - bits.TrailingZeros(uint(nb)))
}

// NGroups returns the number of distinct groups seen.
func (t *AggTable) NGroups() int { return len(t.recs) - 1 }

// Upsert folds one (key, value) into its group, creating the group on
// first sight. The hash code is only a filter: a code match still
// compares the record's key.
func (t *AggTable) Upsert(in AggInput) {
	slot := &t.dir[in.Code>>t.shift]
	for i := *slot; i != 0; {
		r := &t.recs[i]
		if r.code == in.Code && r.key == in.Key {
			r.count++
			r.sum += uint64(in.Value)
			return
		}
		i = r.next
	}
	// New group: append a record at the head of its chain — or, once the
	// groups outnumber the buckets, double the directory and re-chain the
	// whole slab.
	ref := uint32(len(t.recs))
	t.recs = append(t.recs, aggRec{next: *slot, code: in.Code, key: in.Key, count: 1, sum: uint64(in.Value)})
	*slot = ref
	if int(ref) <= len(t.dir) {
		return
	}
	t.clearDir(2 * len(t.dir))
	for i := 1; i < len(t.recs); i++ {
		r := &t.recs[i]
		head := &t.dir[r.code>>t.shift]
		r.next, *head = *head, uint32(i)
	}
}

// UpsertBatch folds one batch of tuples into the table. Baseline
// processes each tuple's full chain in turn; Group and Pipelined batch
// the directory-slot prefetches g tuples at a time and run the upserts
// against warm lines (the software pipeline degenerates to the same
// two-pass shape here — an upsert's structural writes cannot be deferred
// without the busy-flag machinery, which native in-order batches make
// redundant).
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
			prefetchT0(unsafe.Pointer(&t.dir[batch[i].Code>>t.shift]))
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
