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
// is carried inline because the flattening scan reads the tuple
// sequentially anyway; the *build-side* key is still re-read from the
// tuple bytes during the probe's final stage, preserving the paper's
// dependent reference chain (header -> cell -> build tuple).
type Entry struct {
	Code uint32
	Key  uint32
	Ref  uint64 // arena address of the tuple
}

const entrySize = 16

// partitions holds one relation's entries scattered into radix
// partitions: partition p occupies entries[offs[p]:offs[p+1]]. The
// slices are scratch owned by a Joiner and recycled across joins —
// regrowing tens of megabytes of entries per join both churns the GC
// and, on first touch, stalls in the kernel populating fresh pages.
type partitions struct {
	bits    uint // radix bits taken from the low end of the hash code
	offs    []int
	entries []Entry
	cursor  []int // scatter cursors, pass-2 scratch
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

// fill flattens rel into entries and scatters them into fanout (a power
// of two) radix partitions on the low bits of the hash code: one
// counting pass over the slot areas, a prefix sum, and one scatter pass
// — the GRACE partition phase on real memory. fanout 1 degenerates to a
// plain flatten. Previous contents of p are discarded; its buffers are
// reused.
func (p *partitions) fill(data []byte, rel *storage.Relation, fanout int) {
	if fanout < 1 {
		fanout = 1
	}
	if fanout&(fanout-1) != 0 {
		panic("native: partition fanout must be a power of two")
	}
	p.bits = uint(bits.TrailingZeros(uint(fanout)))
	mask := uint32(fanout - 1)

	p.offs = intsFor(p.offs, fanout+1)
	if fanout == 1 {
		p.entries = Flatten(rel, p.entries)
		p.offs[0], p.offs[1] = 0, len(p.entries)
		return
	}

	// Pass 1: histogram of partition sizes from the slot areas alone.
	hist := intsFor(p.cursor, fanout)
	clear(hist)
	eachSlot(data, rel.Pages, rel.PageSize, func(_ uint64, code uint32, _ uint16) {
		hist[code&mask]++
	})

	// Prefix sum -> partition base offsets.
	sum := 0
	for i, h := range hist {
		p.offs[i] = sum
		sum += h
	}
	p.offs[fanout] = sum

	// Pass 2: scatter entries to their partitions. The histogram scratch
	// becomes the cursor array: both hold one int per partition.
	if cap(p.entries) < sum {
		p.entries = make([]Entry, sum)
	} else {
		p.entries = p.entries[:sum]
	}
	p.cursor = hist
	copy(p.cursor, p.offs[:fanout])
	eachSlot(data, rel.Pages, rel.PageSize, func(tuple uint64, code uint32, _ uint16) {
		d := code & mask
		p.entries[p.cursor[d]] = Entry{
			Code: code,
			Key:  binary.LittleEndian.Uint32(data[tuple-arena.Base:]),
			Ref:  tuple,
		}
		p.cursor[d]++
	})
}

// Flatten returns one Entry per tuple of rel, in storage order, reusing
// dst's backing array. It is the entry-construction step of the native
// engine exposed for the batch operator layer, which flattens a
// materialized build side before building a row table over it.
func Flatten(rel *storage.Relation, dst []Entry) []Entry {
	return FlattenPages(rel, 0, rel.NPages(), dst)
}

// FlattenPages is Flatten over pages [lo, hi) of rel — one probe morsel
// of the streaming join. dst is grown once, to the range's tuple count,
// before the first entry is written.
func FlattenPages(rel *storage.Relation, lo, hi int, dst []Entry) []Entry {
	data := rel.Arena().Data()
	pages := rel.Pages[lo:hi]
	n := rel.NTuples
	if len(pages) < rel.NPages() {
		n = 0
		for _, page := range pages {
			n += int(binary.LittleEndian.Uint16(data[page-arena.Base:]))
		}
	}
	dst = slices.Grow(dst[:0], n)
	eachSlot(data, pages, rel.PageSize, func(tuple uint64, code uint32, _ uint16) {
		dst = append(dst, Entry{
			Code: code,
			Key:  binary.LittleEndian.Uint32(data[tuple-arena.Base:]),
			Ref:  tuple,
		})
	})
	return dst
}

// eachSlot walks the slot areas of pages directly in the arena's backing
// bytes, yielding each tuple's address, memoized hash code, and length.
// This is the native analog of the simulator's cursor, without timing.
func eachSlot(data []byte, pages []arena.Addr, pageSize int, fn func(tuple uint64, code uint32, length uint16)) {
	for _, page := range pages {
		base := page - arena.Base
		n := int(binary.LittleEndian.Uint16(data[base:]))
		slot := base + uint64(pageSize) - storage.SlotSize
		for i := 0; i < n; i++ {
			off := binary.LittleEndian.Uint16(data[slot+storage.SlotOffOffset:])
			length := binary.LittleEndian.Uint16(data[slot+storage.SlotOffLength:])
			code := binary.LittleEndian.Uint32(data[slot+storage.SlotOffHash:])
			fn(page+uint64(off), code, length)
			slot -= storage.SlotSize
		}
	}
}
