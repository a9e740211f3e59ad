package spill

import (
	"fmt"
	"os"
	"sync"

	"hashjoin/internal/fault"
	"hashjoin/internal/storage"
)

// Writer spills one partition: tuples are encoded into slotted pages in
// a pool buffer, and each full page is enqueued for a write-behind
// worker, so encoding the next page overlaps writing the previous one.
// A Writer is single-goroutine; the Manager's workers do the I/O.
type Writer struct {
	m       *Manager
	f       *os.File
	dirIdx  int // index into m.parents of the directory holding the file
	cur     pageBuf
	page    storage.Page
	hasCur  bool
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
	return &Writer{m: m, f: f, dirIdx: dirIdx}, nil
}

// Path returns the partition file's path (for error reporting).
func (w *Writer) Path() string { return w.f.Name() }

// Append encodes one tuple with its memoized hash code. A page that
// fills is handed to the write-behind queue and a fresh buffer taken
// from the pool; the only wait on this path is pool pressure (charged
// to WriteStall). Cancellation and the sticky write error are checked
// at page boundaries, so a cancelled join stops spilling within one
// page and a failed page write surfaces within one page of tuples after
// it lands (Finish reports any error the last pages raise).
func (w *Writer) Append(tuple []byte, code uint32) error {
	if !w.hasCur {
		if err := w.m.ctxErr(); err != nil {
			return err
		}
		w.newPage()
	}
	if !w.page.Append(tuple, code) {
		if err := w.pageErr(); err != nil {
			// The full page is never written: hand its buffer back.
			w.m.release(w.cur)
			w.hasCur = false
			return err
		}
		w.flush()
		w.newPage()
		if !w.page.Append(tuple, code) {
			return fmt.Errorf("spill: %d-byte tuple does not fit a %d-byte page",
				len(tuple), w.m.pageSize)
		}
	}
	w.ntuples++
	return nil
}

// pageErr is the page-boundary check: cancellation, then the first
// error a write-behind worker recorded for this partition.
func (w *Writer) pageErr() error {
	if err := w.m.ctxErr(); err != nil {
		return err
	}
	return w.firstErr()
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
		if w.page.NSlots() > 0 {
			w.flush()
		} else {
			w.m.release(w.cur)
			w.hasCur = false
		}
	}
	w.pending.Wait()
	if err := fault.Hit(fault.SiteSpillSync); err != nil {
		w.setErr(fmt.Errorf("spill: finishing %s: %w", w.f.Name(), err))
	}
	return w.firstErr()
}

// newPage takes a pool buffer and initializes a slotted page in its
// payload region, past the integrity header (sealed at write time).
func (w *Writer) newPage() {
	w.cur = w.m.acquire(&w.m.writeStallNs)
	w.page = storage.InitPage(w.m.a, w.cur.addr+HeaderSize,
		w.m.pageSize-HeaderSize, uint32(w.npages))
	w.hasCur = true
}

// flush enqueues the current page for write-behind. Full pages are
// written whole (a partial final page included — its slot count bounds
// the valid region), so reads can fetch fixed-size pages.
func (w *Writer) flush() {
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
