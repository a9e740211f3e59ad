package spill

import (
	"context"
	"errors"
	"os"
	"syscall"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
)

// writePartition spills n width-byte tuples and finishes the writer.
func writePartition(t *testing.T, m *Manager, n, width int) *Writer {
	t.Helper()
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(tupleFor(i, width), uint32(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return w
}

// drainPool asserts every pool buffer is back (nothing leaked) and
// returns them.
func drainPool(t *testing.T, m *Manager) {
	t.Helper()
	var drained []pageBuf
	for {
		select {
		case b := <-m.pool:
			drained = append(drained, b)
			continue
		default:
		}
		break
	}
	if want := cap(m.pool); len(drained) != want {
		t.Fatalf("pool holds %d buffers, want %d", len(drained), want)
	}
	for _, b := range drained {
		m.pool <- b
	}
}

func TestCorruptPageDetected(t *testing.T) {
	const pageSize = 512
	m := newTestManager(t, pageSize)
	w := writePartition(t, m, 300, 24)
	if w.NPages() < 3 {
		t.Fatalf("want >= 3 pages, got %d", w.NPages())
	}

	// Flip one byte in the middle of page 1's payload, on disk.
	f, err := os.OpenFile(w.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open spill file: %v", err)
	}
	off := int64(pageSize) + int64(pageSize)/2
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	f.Close()

	r := w.OpenReader()
	defer r.Close()
	// Page 0 is intact and must still be delivered.
	pg, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("page 0: Next = (%v, %v)", ok, err)
	}
	m.Release(pg)
	// Page 1 must fail verification with a located, typed error.
	_, ok, err = r.Next()
	if ok || err == nil {
		t.Fatalf("corrupt page delivered: (%v, %v)", ok, err)
	}
	var cpe *CorruptPageError
	if !errors.As(err, &cpe) {
		t.Fatalf("err = %T %v, want *CorruptPageError", err, err)
	}
	if cpe.Page != 1 || cpe.Offset != pageSize || cpe.File != w.Path() {
		t.Fatalf("corruption located at page %d offset %d in %s, want page 1 offset %d in %s",
			cpe.Page, cpe.Offset, cpe.File, pageSize, w.Path())
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("errors.Is(%v, ErrCorrupt) = false", err)
	}
	// The reader is poisoned; the pool must still be whole after Close.
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next after corruption = (%v, %v), want done", ok, err)
	}
	r.Close()
	drainPool(t, m)
}

func TestTransientWriteErrorRetried(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError, Err: syscall.EINTR, Count: 2})
	m := newTestManager(t, 512)
	w := writePartition(t, m, 200, 24)
	if got := fault.Hits(fault.SiteSpillWrite); got != 2 {
		t.Fatalf("write fault fired %d times, want 2", got)
	}
	st := m.Stats()
	if st.WriteRetries < 2 {
		t.Fatalf("WriteRetries = %d, want >= 2", st.WriteRetries)
	}
	// The partition reads back intact after the retries.
	r := w.OpenReader()
	defer r.Close()
	got := 0
	for {
		pg, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		got += pg.NTuples()
		m.Release(pg)
	}
	if got != 200 {
		t.Fatalf("read %d tuples after retried writes, want 200", got)
	}
}

func TestTransientReadErrorRetried(t *testing.T) {
	defer fault.Reset()
	m := newTestManager(t, 512)
	w := writePartition(t, m, 200, 24)
	fault.Enable(fault.SiteSpillRead, fault.Fault{Kind: fault.KindError, Err: syscall.EAGAIN, Count: 2})
	r := w.OpenReader()
	defer r.Close()
	got := 0
	for {
		pg, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		got += pg.NTuples()
		m.Release(pg)
	}
	if got != 200 {
		t.Fatalf("read %d tuples, want 200", got)
	}
	if st := m.Stats(); st.ReadRetries < 2 {
		t.Fatalf("ReadRetries = %d, want >= 2", st.ReadRetries)
	}
}

func TestPermanentWriteErrorSticky(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError})
	parent := t.TempDir()
	m, err := NewManager(Config{Dir: parent, PageSize: 512, A: arena.New(1 << 20)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 200; i++ {
		// Append keeps accepting (the error is reported, not fatal to
		// encoding), but must eventually surface the sticky error.
		w.Append(tupleFor(i, 24), uint32(i))
	}
	err = w.Finish()
	if err == nil {
		t.Fatal("Finish succeeded despite injected permanent write errors")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Finish err = %v, want injected", err)
	}
	if st := m.Stats(); st.WriteRetries != 0 {
		t.Fatalf("permanent error was retried %d times", st.WriteRetries)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fault.CheckNoFiles(t, parent)
}

// TestWriteErrorWithinOnePage pins where Append reports a write-behind
// failure: the sticky error is checked at page boundaries, so once a
// failed page write has landed Append returns it within one page of
// tuples, Finish returns it too, and the page that was never written
// goes back to the pool.
func TestWriteErrorWithinOnePage(t *testing.T) {
	defer fault.Reset()
	const pageSize, width = 512, 24
	m := newTestManager(t, pageSize)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError})
	// Fill page 0 and start page 1: page 0 goes to a write-behind worker,
	// whose write fails.
	i := 0
	for ; w.NPages() < 2; i++ {
		if err := w.Append(tupleFor(i, width), uint32(i)); err != nil {
			t.Fatalf("Append(%d) before any write landed: %v", i, err)
		}
	}
	w.pending.Wait() // the failed write has landed
	err = nil
	for n := 0; n < PageCapacity(pageSize, width) && err == nil; n++ {
		err = w.Append(tupleFor(i, width), uint32(i))
		i++
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Append within one page of the failed write = %v, want injected", err)
	}
	if err := w.Finish(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Finish err = %v, want injected", err)
	}
	drainPool(t, m)
}

// TestPanicMidWriteContained is the crash-safety satellite: a panic
// injected inside the write-behind worker becomes the writer's sticky
// typed error, Finish and Close do not deadlock, and the per-join temp
// dir is removed with no orphans.
func TestPanicMidWriteContained(t *testing.T) {
	defer fault.Reset()
	base := fault.Goroutines()
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindPanic, Count: 1})
	parent := t.TempDir()
	m, err := NewManager(Config{Dir: parent, PageSize: 512, A: arena.New(1 << 20)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 300; i++ {
		w.Append(tupleFor(i, 24), uint32(i))
	}
	err = w.Finish()
	if err == nil {
		t.Fatal("Finish succeeded despite injected worker panic")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Finish err = %v, want injected", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after contained panic: %v", err)
	}
	fault.CheckNoFiles(t, parent)
	fault.CheckGoroutines(t, base)
}

func TestPanicMidReadContained(t *testing.T) {
	defer fault.Reset()
	m := newTestManager(t, 512)
	w := writePartition(t, m, 300, 24)
	base := fault.Goroutines() // write-behind workers are part of the baseline
	fault.Enable(fault.SiteSpillRead, fault.Fault{Kind: fault.KindPanic, Count: 1})
	r := w.OpenReader()
	_, ok, err := r.Next()
	if ok || err == nil {
		t.Fatalf("Next = (%v, %v), want contained panic error", ok, err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Next err = %v, want injected", err)
	}
	r.Close()
	fault.Reset()
	drainPool(t, m)
	fault.CheckGoroutines(t, base)
}

func TestCreateFailpoint(t *testing.T) {
	defer fault.Reset()
	m := newTestManager(t, 512)
	fault.Enable(fault.SiteSpillCreate, fault.Fault{Kind: fault.KindError})
	if _, err := m.NewWriter(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("NewWriter err = %v, want injected", err)
	}
}

func TestSyncFailpoint(t *testing.T) {
	defer fault.Reset()
	m := newTestManager(t, 512)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Append(tupleFor(0, 24), 0); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fault.Enable(fault.SiteSpillSync, fault.Fault{Kind: fault.KindError})
	if err := w.Finish(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Finish err = %v, want injected", err)
	}
}

func TestRemoveFailpoint(t *testing.T) {
	defer fault.Reset()
	parent := t.TempDir()
	m, err := NewManager(Config{Dir: parent, PageSize: 512, A: arena.New(1 << 20)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	fault.Enable(fault.SiteSpillRemove, fault.Fault{Kind: fault.KindError})
	if err := m.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close err = %v, want injected", err)
	}
}

func TestReadDelayChargedToStall(t *testing.T) {
	defer fault.Reset()
	m := newTestManager(t, 512)
	w := writePartition(t, m, 300, 24)
	fault.Enable(fault.SiteSpillRead, fault.Fault{Kind: fault.KindDelay, Delay: 3 * time.Millisecond})
	r := w.OpenReader()
	defer r.Close()
	for {
		pg, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		m.Release(pg)
	}
	if st := m.Stats(); st.ReadStall <= 0 {
		t.Fatalf("injected read delay not charged to ReadStall: %+v", st)
	}
}

func TestCancelledContextStopsSpill(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m, err := NewManager(Config{Dir: t.TempDir(), PageSize: minPageSize, A: arena.New(1 << 20), Ctx: ctx})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	defer m.Close()
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	// Fill past one page so there is something to read back.
	for i := 0; ; i++ {
		if err := w.Append(tupleFor(i, 24), uint32(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if w.NPages() >= 3 {
			break
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	cancel()
	// Writes stop at the next page boundary...
	wErr := error(nil)
	for i := 0; i < 10_000; i++ {
		if wErr = w.Append(tupleFor(i, 24), uint32(i)); wErr != nil {
			break
		}
	}
	if !errors.Is(wErr, context.Canceled) {
		t.Fatalf("Append after cancel = %v, want context.Canceled within one page", wErr)
	}
	// ...and reads stop before the next page.
	r := w.OpenReader()
	defer r.Close()
	if _, ok, err := r.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = (%v, %v), want context.Canceled", ok, err)
	}
}
