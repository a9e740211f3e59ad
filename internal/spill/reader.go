package spill

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
)

// Page is one spilled page delivered by a Reader: NTuples fixed-width
// rows in an arena-backed pool buffer. The caller must hand it back
// with Manager.Release exactly once; until then its rows stay
// addressable by arena address.
type Page struct {
	buf   pageBuf
	n     int
	width int
}

// NTuples returns the number of rows on the page.
func (p Page) NTuples() int { return p.n }

// Width returns the tuple bytes each row carries.
func (p Page) Width() int { return p.width }

// Rows returns the page's packed rows, NTuples of RowHeaderSize+Width
// bytes each: zero link, hash code, tuple. They alias the pool buffer.
func (p Page) Rows() []byte {
	return p.buf.b[pageRowsOff : pageRowsOff+p.n*(RowHeaderSize+p.width)]
}

// RowsAddr returns the arena address of the first row.
func (p Page) RowsAddr() arena.Addr { return p.buf.addr + pageRowsOff }

// Tuple returns row i's tuple bytes (aliasing the pool buffer).
func (p Page) Tuple(i int) []byte {
	off := pageRowsOff + i*(RowHeaderSize+p.width) + RowHeaderSize
	return p.buf.b[off : off+p.width]
}

// HashCode returns row i's memoized hash code.
func (p Page) HashCode(i int) uint32 {
	return binary.LittleEndian.Uint32(p.buf.b[pageRowsOff+i*(RowHeaderSize+p.width)+RowCodeOffset:])
}

// readRes is one completed read-ahead.
type readRes struct {
	buf pageBuf
	err error
}

// Reader streams a finished partition back with double buffering: while
// the caller consumes page n, page n+1's read is in flight in a
// background goroutine. Only the wait for an unfinished read is charged
// to ReadStall — that is the latency read-ahead failed to hide.
type Reader struct {
	m      *Manager
	f      *os.File
	dirIdx int // index into m.parents of the directory holding the file
	width  int // the partition's tuple width
	npages int
	next   int // next page index to deliver
	issued int // next page index to start reading
	ahead  chan readRes
}

// OpenReader starts streaming the partition from the beginning. The
// Writer must be Finished. Multiple sequential read passes over one
// partition are allowed (the chunked join re-reads the probe partition
// once per build chunk); each pass uses its own Reader.
func (w *Writer) OpenReader() *Reader {
	return &Reader{m: w.m, f: w.f, dirIdx: w.dirIdx, width: w.width, npages: w.npages, ahead: make(chan readRes, 1)}
}

// Next delivers the next page, issuing the following page's read before
// returning. ok is false at end of partition. The caller owns the page
// until Manager.Release. Every page is integrity-checked (magic,
// version, index, CRC32C, then its row count and width) before it is
// delivered; a failed check
// returns a *CorruptPageError and poisons the reader. Cancellation is
// checked before each delivered page.
func (r *Reader) Next() (Page, bool, error) {
	if r.next >= r.npages {
		return Page{}, false, nil
	}
	if err := r.m.ctxErr(); err != nil {
		return Page{}, false, err
	}
	if r.issued == r.next {
		r.issue()
	}
	var res readRes
	select {
	case res = <-r.ahead:
	default:
		t0 := time.Now()
		res = <-r.ahead
		r.m.readStallNs.Add(int64(time.Since(t0)))
	}
	if res.err != nil {
		r.m.release(res.buf)
		r.next = r.npages // poison: further Next calls return done
		return Page{}, false, res.err
	}
	idx := r.next
	r.next++
	if r.issued < r.npages {
		r.issue()
	}
	if fault.Hit(fault.SiteSpillVerify) != nil {
		// Chaos hook: flip one payload byte so the CRC check below fails
		// exactly as a real on-disk bit flip would.
		res.buf.b[HeaderSize] ^= 0xFF
	}
	if reason := verifyPage(res.buf.b, uint32(idx)); reason != "" {
		return Page{}, false, r.corrupt(res.buf, idx, reason)
	}
	n := int(binary.LittleEndian.Uint32(res.buf.b[HeaderSize:]))
	width := int(binary.LittleEndian.Uint32(res.buf.b[HeaderSize+4:]))
	if width != r.width || n < 1 || n > PageCapacity(r.m.pageSize, width) {
		return Page{}, false, r.corrupt(res.buf, idx, fmt.Sprintf("%d rows of %d-byte tuples (want 1 to %d rows of %d-byte tuples)",
			n, width, PageCapacity(r.m.pageSize, r.width), r.width))
	}
	return Page{buf: res.buf, n: n, width: width}, true, nil
}

// corrupt releases the failed page's buffer, abandons the already-
// issued read-ahead, poisons the reader, and builds the typed
// corruption error.
func (r *Reader) corrupt(buf pageBuf, idx int, reason string) error {
	r.m.release(buf)
	r.abandon()
	return &CorruptPageError{
		File:   r.f.Name(),
		Page:   idx,
		Offset: int64(idx) * int64(r.m.pageSize),
		Reason: reason,
	}
}

// issue starts the read of page r.issued into a fresh pool buffer. The
// goroutine is tracked by the Manager so Close never races a live read
// into a reclaimed buffer.
func (r *Reader) issue() {
	buf := r.m.acquire(&r.m.readStallNs)
	off := int64(r.issued) * int64(r.m.pageSize)
	r.issued++
	r.m.rwg.Add(1)
	go func() {
		defer r.m.rwg.Done()
		// Contain panics (fault-injected or otherwise) into the result:
		// the buffer must reach the ahead channel either way, or Next and
		// Close would deadlock waiting for it.
		defer func() {
			if rec := recover(); rec != nil {
				err, ok := fault.AsInjected(rec)
				if !ok {
					err = fmt.Errorf("spill: read worker panic: %v", rec)
				}
				r.ahead <- readRes{buf: buf, err: err}
			}
		}()
		err := r.m.retryIO(&r.m.readRetries, func() error {
			if err := fault.Hit(fault.SiteSpillRead); err != nil {
				return err
			}
			_, err := r.f.ReadAt(buf.b, off)
			return err
		})
		if err == nil {
			r.m.pagesRead.Add(1)
			r.m.bytesRead.Add(int64(len(buf.b)))
		} else if dirPermanent(err) {
			err = r.m.dirFailed(r.dirIdx, err)
		}
		r.ahead <- readRes{buf: buf, err: err}
	}()
}

// Close releases the in-flight read-ahead buffer, if any. It does not
// touch the partition file (the Manager owns it) and is required even
// after Next returned done or an error.
func (r *Reader) Close() { r.abandon() }

// abandon drains any in-flight read-ahead back into the pool and
// poisons the reader so further Next calls return done.
func (r *Reader) abandon() {
	if r.issued > r.next && r.issued <= r.npages {
		res := <-r.ahead
		r.m.release(res.buf)
	}
	r.next, r.issued = r.npages, r.npages
}
