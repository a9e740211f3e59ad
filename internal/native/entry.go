package native

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"hashjoin/internal/arena"
	"hashjoin/internal/storage"
)

// Entry is the native engine's compact tuple descriptor: the hash code
// memoized in the slot (paper section 7.1 — computed once during
// partitioning, reused by the join), the join key, and the address of
// the tuple bytes in the arena. 16 bytes, four per cache line. The key
// is carried inline because the partition scatter reads the tuple
// anyway; the probe's final stage compares it against the build key
// serialized in the row table's row (rowtable.go), so the dependent
// chain is directory slot -> rows.
type Entry struct {
	Code uint32
	Key  uint32
	Ref  uint64 // arena address of the tuple
}

const entrySize = 16

// partitions holds one relation's entries scattered into radix
// partitions: partition p occupies entries[offs[p]:offs[p+1]]. A
// Joiner's two are scratch recycled across joins — regrowing tens of
// megabytes of entries per join both churns the GC and, on first touch,
// stalls in the kernel populating fresh pages.
//
// One kernel fills them, the GRACE partition phase on real memory: the
// input is cut into ranges, each range counts its tuples per partition
// (count), one prefix sum over (partition × range) turns the counts
// into scatter cursors (place), and each range scatters its own tuples
// (scatter). Ranges land in input order inside each partition, so the
// entries are the same whether one goroutine runs the ranges or many
// do, and whatever the cut.
type partitions struct {
	bits    uint // hash-code bits consumed: the split's shift plus its radix bits
	offs    []int
	entries []Entry
	ranges  []partRange // the split's morsels

	// The split in progress: the arena bytes and page size a range's
	// pages live in, and the code bits it partitions on.
	data     []byte
	pageSize int
	shift    uint
	mask     uint32
}

// partRange is one morsel of a split. It holds either a run of a
// relation's pages, still in slotted form (the partition phase), or
// entries already flattened (recursive re-partitioning of one pair); the
// kernel walks both, and one of the two is always empty. hist counts the
// range's tuples per partition, then serves as its scatter cursors.
type partRange struct {
	pages []arena.Addr
	ents  []Entry
	hist  []int
}

func (p *partitions) fanout() int { return len(p.offs) - 1 }

func (p *partitions) part(i int) []Entry { return p.entries[p.offs[i]:p.offs[i+1]] }

// intsFor returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers overwrite every element.
func intsFor(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// begin starts a split into fanout (a power of two) partitions on the
// hash-code bits above shift, over n ranges the caller then fills in.
// Previous contents are discarded; buffers are reused.
func (p *partitions) begin(shift uint, fanout, n int) {
	if fanout&(fanout-1) != 0 {
		panic("native: partition fanout must be a power of two")
	}
	p.shift, p.mask = shift, uint32(fanout-1)
	p.bits = shift + uint(bits.TrailingZeros(uint(fanout)))
	p.offs = intsFor(p.offs, fanout+1)
	if cap(p.ranges) < n {
		p.ranges = append(p.ranges[:cap(p.ranges)], make([]partRange, n-cap(p.ranges))...)
	}
	p.ranges = p.ranges[:n]
	for i := range p.ranges {
		r := &p.ranges[i]
		r.pages, r.ents, r.hist = nil, nil, intsFor(r.hist, fanout)
	}
}

// cut makes rel's pages the input of a split into fanout partitions, in
// ranges of equal page count (the last may be shorter): at most n >= 1,
// at least one.
func (p *partitions) cut(rel *storage.Relation, fanout, n int) {
	np := rel.NPages()
	per := max(1, (np+n-1)/n)
	p.begin(0, fanout, max(1, (np+per-1)/per))
	p.data, p.pageSize = rel.Arena().Data(), rel.PageSize
	for i := range p.ranges {
		p.ranges[i].pages = rel.Pages[min(i*per, np):min((i+1)*per, np)]
	}
}

// count is the kernel's first pass over one range: its tuples per
// partition, read from the slot areas alone (a page's header count when
// there is one partition — the range's tuple count, so the prefix sum
// yields each range's first row).
func (p *partitions) count(r *partRange) {
	h, shift, mask := r.hist, p.shift, p.mask
	clear(h)
	for i := range r.ents {
		h[r.ents[i].Code>>shift&mask]++
	}
	data := p.data
	for _, page := range r.pages {
		base := page - arena.Base
		n := int(binary.LittleEndian.Uint16(data[base:]))
		if mask == 0 {
			h[0] += n
			continue
		}
		slot := base + uint64(p.pageSize) - storage.SlotSize
		for ; n > 0; n-- {
			h[binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])>>shift&mask]++
			slot -= storage.SlotSize
		}
	}
}

// place turns the ranges' counts into scatter cursors with one prefix
// sum over (partition × range), ranges in order inside each partition,
// and sizes the entries. It runs between the two passes, on one
// goroutine.
func (p *partitions) place() {
	sum := 0
	for d := range p.offs[:len(p.offs)-1] {
		p.offs[d] = sum
		for i := range p.ranges {
			h := p.ranges[i].hist
			h[d], sum = sum, sum+h[d]
		}
	}
	p.offs[len(p.offs)-1] = sum
	if cap(p.entries) < sum {
		p.entries = make([]Entry, sum)
	} else {
		p.entries = p.entries[:sum]
	}
}

// scatter is the kernel's second pass over one range: every tuple to
// its partition's next slot, a page's tuples built into entries on the
// way. Ranges write disjoint slots, so any number may run at once. The
// page walk is appendEntries'.
func (p *partitions) scatter(r *partRange) {
	cur, out, shift, mask := r.hist, p.entries, p.shift, p.mask
	for i := range r.ents {
		d := r.ents[i].Code >> shift & mask
		out[cur[d]] = r.ents[i]
		cur[d]++
	}
	data := p.data
	for _, page := range r.pages {
		base := page - arena.Base
		n := int(binary.LittleEndian.Uint16(data[base:]))
		slot := base + uint64(p.pageSize) - storage.SlotSize
		for ; n > 0; n-- {
			off := uint64(binary.LittleEndian.Uint16(data[slot+storage.SlotOffOffset:]))
			code := binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])
			slot -= storage.SlotSize
			d := code >> shift & mask
			out[cur[d]] = Entry{Code: code, Key: binary.LittleEndian.Uint32(data[base+off:]), Ref: page + off}
			cur[d]++
		}
	}
}

// run is a whole split on the calling goroutine.
func (p *partitions) run() {
	for i := range p.ranges {
		p.count(&p.ranges[i])
	}
	p.place()
	for i := range p.ranges {
		p.scatter(&p.ranges[i])
	}
}

// split re-partitions entries already flattened — one oversized pair —
// into fanout partitions on the code bits above shift: the kernel over
// one range. p's buffers come from the Go heap, not the arena: this is
// the over-budget slow path, and its scratch must not count against the
// very budget it is trying to meet.
func (p *partitions) split(ents []Entry, shift uint, fanout int) {
	p.begin(shift, fanout, 1)
	p.ranges[0].ents = ents
	p.run()
}

// Flatten returns one Entry per tuple of rel, in storage order, reusing
// dst's backing array: the entry-construction step of the partition
// phase on its own, for measuring it and for tests. dst is grown once,
// to the relation's tuple count, before the first entry is written.
func Flatten(rel *storage.Relation, dst []Entry) []Entry {
	return appendEntries(slices.Grow(dst[:0], rel.NTuples), rel.Arena().Data(), rel.Pages, rel.PageSize)
}

// appendEntries appends one Entry per tuple of pages, in storage order,
// reading each slot's offset and memoized code and the tuple's key.
func appendEntries(dst []Entry, data []byte, pages []arena.Addr, pageSize int) []Entry {
	for _, page := range pages {
		base := page - arena.Base
		n := int(binary.LittleEndian.Uint16(data[base:]))
		slot := base + uint64(pageSize) - storage.SlotSize
		for ; n > 0; n-- {
			off := uint64(binary.LittleEndian.Uint16(data[slot+storage.SlotOffOffset:]))
			code := binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])
			slot -= storage.SlotSize
			dst = append(dst, Entry{Code: code, Key: binary.LittleEndian.Uint32(data[base+off:]), Ref: page + off})
		}
	}
	return dst
}
