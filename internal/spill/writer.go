package spill

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"hashjoin/internal/fault"
)

// Writer spills one partition: tuples are packed as fixed-width rows
// into pages in a pool buffer (see integrity.go for the layout), and each
// full page is enqueued for a write-behind worker, so filling the next
// page overlaps writing the previous one. A Writer is single-goroutine;
// the Manager's workers do the I/O.
type Writer struct {
	m       *Manager
	f       *os.File
	dirIdx  int // index into m.parents of the directory holding the file
	cur     pageBuf
	hasCur  bool
	width   int // tuple bytes per row, fixed by the first Append; -1 before it
	rowSize int // RowHeaderSize + width
	perPage int // rows a page holds
	n       int // rows on the current page
	npages  int
	ntuples int
	pending sync.WaitGroup // pages enqueued but not yet written

	errMu sync.Mutex
	err   error // first write error, sticky
}

// NewWriter opens a fresh partition file for spilling, in the first
// healthy spill directory.
func (m *Manager) NewWriter() (*Writer, error) {
	f, dirIdx, err := m.newFile()
	if err != nil {
		return nil, err
	}
	return &Writer{m: m, f: f, dirIdx: dirIdx, width: -1}, nil
}

// Path returns the partition file's path (for error reporting).
func (w *Writer) Path() string { return w.f.Name() }

// Append writes one tuple as a row behind its memoized hash code: one
// capacity check and one copy. The first Append fixes the partition's
// tuple width; a tuple of another width is an error and writes nothing.
// A page that fills is handed to the write-behind queue and a fresh
// buffer taken from the pool; the only wait on this path is pool
// pressure (charged to WriteStall). Cancellation and the sticky write
// error are checked at page boundaries, so a cancelled join stops
// spilling within one page and a failed page write surfaces within one
// page of tuples after it lands (Finish reports any error the last
// pages raise).
func (w *Writer) Append(tuple []byte, code uint32) error {
	if len(tuple) != w.width {
		if err := w.fixWidth(len(tuple)); err != nil {
			return err
		}
	}
	if w.n == w.perPage {
		if err := w.nextPage(); err != nil {
			return err
		}
	}
	row := w.cur.b[pageRowsOff+w.n*w.rowSize:][:w.rowSize]
	binary.LittleEndian.PutUint64(row, uint64(code)<<32) // zero link, then the code
	copy(row[RowHeaderSize:], tuple)
	w.n++
	w.ntuples++
	return nil
}

// fixWidth fixes the partition's tuple width on its first Append, and
// refuses every later width and a row no page can hold.
func (w *Writer) fixWidth(width int) error {
	if w.width >= 0 {
		return fmt.Errorf("spill: %d-byte tuple in a partition of %d-byte tuples", width, w.width)
	}
	perPage := PageCapacity(w.m.pageSize, width)
	if perPage < 1 {
		return fmt.Errorf("spill: %d-byte tuple does not fit a %d-byte page", width, w.m.pageSize)
	}
	w.width, w.rowSize, w.perPage = width, RowHeaderSize+width, perPage
	w.n = perPage // no page yet: the first row takes one
	return nil
}

// NTuples returns the number of tuples appended so far.
func (w *Writer) NTuples() int { return w.ntuples }

// NPages returns the number of pages the partition occupies (including
// a partially filled current page).
func (w *Writer) NPages() int {
	if w.hasCur {
		return w.npages + 1
	}
	return w.npages
}

// Finish flushes the partial last page and waits for every enqueued
// page to hit the file, returning the first write error. The partition
// is then ready for OpenReader; the file stays open (and owned by the
// Manager) until Manager.Close.
func (w *Writer) Finish() error {
	if w.hasCur {
		w.flush()
	}
	w.pending.Wait()
	if err := fault.Hit(fault.SiteSpillSync); err != nil {
		w.setErr(fmt.Errorf("spill: finishing %s: %w", w.f.Name(), err))
	}
	return w.firstErr()
}

// nextPage is the page boundary: it checks cancellation and the first
// error a write-behind worker recorded for this partition, enqueues the
// full page, and takes a fresh pool buffer. A page that errs is never
// written: its buffer goes back to the pool.
func (w *Writer) nextPage() error {
	err := w.m.ctxErr()
	if err == nil {
		err = w.firstErr()
	}
	if err != nil {
		if w.hasCur {
			w.m.release(w.cur)
			w.hasCur = false
		}
		return err
	}
	if w.hasCur {
		w.flush()
	}
	w.cur = w.m.acquire(&w.m.writeStallNs)
	w.hasCur = true
	w.n = 0
	return nil
}

// flush stamps the row count and width onto the current page and
// enqueues it for write-behind. Pages are written whole (a partial final
// page included — its row count bounds the valid region), so reads can
// fetch fixed-size pages.
func (w *Writer) flush() {
	binary.LittleEndian.PutUint32(w.cur.b[HeaderSize:], uint32(w.n))
	binary.LittleEndian.PutUint32(w.cur.b[HeaderSize+4:], uint32(w.width))
	w.pending.Add(1)
	w.m.writeq <- writeReq{w: w, idx: w.npages, off: int64(w.npages) * int64(w.m.pageSize), buf: w.cur}
	w.npages++
	w.hasCur = false
}

func (w *Writer) setErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
}

func (w *Writer) firstErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}
