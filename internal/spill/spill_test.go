package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/storage"
)

// newTestManager returns a Manager with a small page size (forcing
// multi-page partitions on tiny inputs) backed by a fresh arena.
func newTestManager(t *testing.T, pageSize int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Dir:      t.TempDir(),
		PageSize: pageSize,
		A:        arena.New(1 << 20),
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// tupleFor derives a deterministic width-byte tuple for index i.
func tupleFor(i, width int) []byte {
	b := make([]byte, width)
	binary.LittleEndian.PutUint32(b, uint32(i))
	for j := 4; j < width; j++ {
		b[j] = byte(i + j)
	}
	return b
}

func TestWriterReaderRoundTrip(t *testing.T) {
	const (
		pageSize = 512
		width    = 24
		n        = 500 // enough tuples for dozens of pages
	)
	m := newTestManager(t, pageSize)

	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(tupleFor(i, width), uint32(i)*2654435761); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if w.NTuples() != n {
		t.Fatalf("NTuples = %d, want %d", w.NTuples(), n)
	}
	if w.NPages() < 2 {
		t.Fatalf("expected a multi-page partition, got %d pages", w.NPages())
	}

	// Two sequential passes — the chunked join re-reads the probe
	// partition once per build chunk.
	for pass := 0; pass < 2; pass++ {
		r := w.OpenReader()
		got := 0
		for {
			pg, ok, err := r.Next()
			if err != nil {
				t.Fatalf("pass %d: Next: %v", pass, err)
			}
			if !ok {
				break
			}
			for i := 0; i < pg.NTuples(); i++ {
				want := tupleFor(got, width)
				tup := pg.Tuple(i)
				if string(tup) != string(want) {
					t.Fatalf("pass %d: tuple %d mismatch: %x != %x", pass, got, tup, want)
				}
				if code := pg.HashCode(i); code != uint32(got)*2654435761 {
					t.Fatalf("pass %d: tuple %d code = %d", pass, got, code)
				}
				got++
			}
			m.Release(pg)
		}
		r.Close()
		if got != n {
			t.Fatalf("pass %d: read %d tuples, want %d", pass, got, n)
		}
	}

	st := m.Stats()
	if st.Partitions != 1 {
		t.Fatalf("Partitions = %d, want 1", st.Partitions)
	}
	if st.PagesWritten != int64(w.NPages()) {
		t.Fatalf("PagesWritten = %d, want %d", st.PagesWritten, w.NPages())
	}
	if st.BytesWritten != int64(w.NPages())*pageSize {
		t.Fatalf("BytesWritten = %d, want %d", st.BytesWritten, w.NPages()*pageSize)
	}
	if st.PagesRead != 2*st.PagesWritten || st.BytesRead != 2*st.BytesWritten {
		t.Fatalf("read stats %d/%d, want double the write stats %d/%d",
			st.PagesRead, st.BytesRead, st.PagesWritten, st.BytesWritten)
	}
}

func TestEmptyPartition(t *testing.T) {
	m := newTestManager(t, 512)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if w.NPages() != 0 {
		t.Fatalf("empty partition has %d pages", w.NPages())
	}
	r := w.OpenReader()
	defer r.Close()
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next on empty partition = (%v, %v), want done", ok, err)
	}
}

func TestTupleTooLarge(t *testing.T) {
	m := newTestManager(t, minPageSize)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	err = w.Append(make([]byte, minPageSize), 1)
	if err == nil {
		t.Fatalf("oversized tuple accepted")
	}
	// The writer stays usable for tuples that do fit.
	if err := w.Append(tupleFor(0, 16), 1); err != nil {
		t.Fatalf("Append after oversize error: %v", err)
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestMixedWidthAppendRefused pins that the first Append fixes a
// partition's tuple width: a tuple of another width is an error and
// writes nothing, and the partition reads back with only its
// fixed-width rows.
func TestMixedWidthAppendRefused(t *testing.T) {
	const width = 24
	m := newTestManager(t, 512)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(tupleFor(i, width), uint32(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	for _, bad := range []int{0, width - 1, width + 1} {
		if err := w.Append(make([]byte, bad), 99); err == nil {
			t.Fatalf("a %d-byte tuple in a %d-byte partition was accepted", bad, width)
		}
	}
	if err := w.Append(tupleFor(3, width), 3); err != nil {
		t.Fatalf("Append after a refused width: %v", err)
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if w.NTuples() != 4 || w.NPages() != 1 {
		t.Fatalf("%d tuples on %d pages, want 4 on 1", w.NTuples(), w.NPages())
	}
	r := w.OpenReader()
	defer r.Close()
	pg, ok, err := r.Next()
	if !ok || err != nil {
		t.Fatalf("Next = (%v, %v)", ok, err)
	}
	if pg.NTuples() != 4 || pg.Width() != width {
		t.Fatalf("page of %d rows of %d bytes, want 4 of %d", pg.NTuples(), pg.Width(), width)
	}
	for i := 0; i < 4; i++ {
		if string(pg.Tuple(i)) != string(tupleFor(i, width)) || pg.HashCode(i) != uint32(i) {
			t.Fatalf("row %d = %x code %d", i, pg.Tuple(i), pg.HashCode(i))
		}
	}
	m.Release(pg)
}

// TestVersionOnePageRefused writes a well-formed version-1 page — the
// slotted page this tier wrote before row pages, with a valid header
// and checksum — over page 0 of a partition. The reader must refuse it
// with a *CorruptPageError naming the version, and deliver no page.
func TestVersionOnePageRefused(t *testing.T) {
	const pageSize, width = 512, 24
	m := newTestManager(t, pageSize)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(tupleFor(i, width), uint32(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	a := arena.New(1 << 16)
	v1 := storage.AllocPage(a, pageSize-HeaderSize, 0)
	for i := 0; i < 5; i++ {
		v1.Append(tupleFor(i, width), uint32(i))
	}
	page := make([]byte, pageSize)
	copy(page[HeaderSize:], a.Bytes(v1.Addr, uint64(v1.Size)))
	binary.LittleEndian.PutUint32(page[0:], pageMagic)
	binary.LittleEndian.PutUint16(page[4:], 1)
	binary.LittleEndian.PutUint32(page[12:], crc32.Checksum(page[HeaderSize:], castagnoli))
	f, err := os.OpenFile(w.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	f.Close()

	r := w.OpenReader()
	defer r.Close()
	pg, ok, err := r.Next()
	var cpe *CorruptPageError
	if ok || !errors.As(err, &cpe) {
		t.Fatalf("Next over a version-1 page = (%d rows, %v, %v), want a *CorruptPageError", pg.NTuples(), ok, err)
	}
	if cpe.Page != 0 || !strings.Contains(cpe.Reason, "format version 1") {
		t.Fatalf("refused page %d for %q, want page 0 for its format version 1", cpe.Page, cpe.Reason)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next after the refusal = (%v, %v), want done", ok, err)
	}
}

func TestCloseRemovesSpillArea(t *testing.T) {
	parent := t.TempDir()
	m, err := NewManager(Config{Dir: parent, A: arena.New(1 << 20)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(tupleFor(i, 32), uint32(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := os.Stat(m.Dir()); err != nil {
		t.Fatalf("spill dir missing before Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill area not removed: %v", ents)
	}
}

// TestCloseOnPanic is the crash-safety contract: a join panicking
// mid-spill unwinds through a deferred Close, and the temp files are
// gone by the time the panic is recovered.
func TestCloseOnPanic(t *testing.T) {
	parent := t.TempDir()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("expected panic")
			}
		}()
		m, err := NewManager(Config{Dir: parent, A: arena.New(1 << 20)})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		defer m.Close()
		w, err := m.NewWriter()
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		for i := 0; i < 100; i++ {
			if err := w.Append(tupleFor(i, 64), uint32(i)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		panic("mid-spill failure")
	}()
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("panic left spill files behind: %v", ents)
	}
}

// TestRepeatedRunsNoOrphans creates and closes Managers in a loop,
// checking the parent directory stays clean — the no-orphan guarantee
// across repeated joins.
func TestRepeatedRunsNoOrphans(t *testing.T) {
	parent := t.TempDir()
	a := arena.New(4 << 20)
	for run := 0; run < 5; run++ {
		mark := a.Used()
		m, err := NewManager(Config{Dir: parent, PageSize: 1024, A: a})
		if err != nil {
			t.Fatalf("run %d: NewManager: %v", run, err)
		}
		w, err := m.NewWriter()
		if err != nil {
			t.Fatalf("run %d: NewWriter: %v", run, err)
		}
		for i := 0; i < 200; i++ {
			if err := w.Append(tupleFor(i, 20), uint32(i)); err != nil {
				t.Fatalf("run %d: Append: %v", run, err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("run %d: Finish: %v", run, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("run %d: Close: %v", run, err)
		}
		a.Truncate(mark)
		ents, err := os.ReadDir(parent)
		if err != nil {
			t.Fatalf("run %d: ReadDir: %v", run, err)
		}
		if len(ents) != 0 {
			t.Fatalf("run %d left orphans: %v", run, ents)
		}
	}
}

func TestManyPartitions(t *testing.T) {
	m := newTestManager(t, 512)
	const parts = 8
	writers := make([]*Writer, parts)
	for p := range writers {
		w, err := m.NewWriter()
		if err != nil {
			t.Fatalf("NewWriter(%d): %v", p, err)
		}
		writers[p] = w
		for i := 0; i < 50; i++ {
			if err := w.Append(tupleFor(p*1000+i, 16), uint32(p)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("Finish(%d): %v", p, err)
		}
	}
	for p, w := range writers {
		r := w.OpenReader()
		got := 0
		for {
			pg, ok, err := r.Next()
			if err != nil {
				t.Fatalf("partition %d: %v", p, err)
			}
			if !ok {
				break
			}
			for i := 0; i < pg.NTuples(); i++ {
				want := tupleFor(p*1000+got, 16)
				if string(pg.Tuple(i)) != string(want) {
					t.Fatalf("partition %d tuple %d mismatch", p, got)
				}
				got++
			}
			m.Release(pg)
		}
		r.Close()
		if got != 50 {
			t.Fatalf("partition %d: read %d tuples, want 50", p, got)
		}
	}
	if st := m.Stats(); st.Partitions != parts {
		t.Fatalf("Partitions = %d, want %d", st.Partitions, parts)
	}
}

func TestReaderCloseMidStream(t *testing.T) {
	// Abandoning a reader with a read-ahead in flight must return the
	// buffer; a full pool drain afterwards proves nothing leaked.
	m := newTestManager(t, 512)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 300; i++ {
		if err := w.Append(tupleFor(i, 32), uint32(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	r := w.OpenReader()
	pg, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("Next = (%v, %v)", ok, err)
	}
	m.Release(pg)
	r.Close() // in-flight read-ahead buffer must come back

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
		t.Fatalf("pool holds %d buffers after abandoned reader, want %d", len(drained), want)
	}
	for _, b := range drained {
		m.pool <- b
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatalf("nil arena accepted")
	}
	if _, err := NewManager(Config{A: arena.New(1 << 20), PageSize: 64}); err == nil {
		t.Fatalf("tiny page size accepted")
	}
	if _, err := NewManager(Config{A: arena.New(1 << 20), PageSize: 1 << 20}); err == nil {
		t.Fatalf("huge page size accepted")
	}
	// Pool allocation failure must not leave a temp dir behind.
	parent := t.TempDir()
	if _, err := NewManager(Config{Dir: parent, A: arena.New(1 << 10)}); err == nil {
		t.Fatalf("undersized arena accepted")
	}
	ents, err := os.ReadDir(parent)
	if err != nil || len(ents) != 0 {
		t.Fatalf("failed NewManager left %v (%v)", ents, err)
	}
}

func TestStallAccounting(t *testing.T) {
	// Sanity only: stalls are monotonic non-negative durations. Forcing a
	// deterministic stall would need fault injection; the overlap claim
	// itself is measured by bench/'s spill.write_stall_ms and
	// spill.read_stall_ms on the spill_skew workload.
	m := newTestManager(t, 512)
	w, err := m.NewWriter()
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append(tupleFor(i, 40), uint32(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	st := m.Stats()
	if st.WriteStall < 0 || st.ReadStall < 0 {
		t.Fatalf("negative stall: %+v", st)
	}
}

// TestPoolSizedPerStream runs streams callers at once on one Manager
// whose pool is exactly what MinPoolPages promises them plus each one's
// pins: every stream writes a multi-page partition, then, twice, pins
// pins pages of it and streams the whole partition past them — the
// spilled-pair chunk loop. The streams meet once all of them hold their
// first chunk, so every stream's pins are out of the pool at the same
// time. No stream may wait forever on a buffer another one holds, and
// every buffer comes back.
func TestPoolSizedPerStream(t *testing.T) {
	const (
		pageSize = 512
		width    = 24
		n        = 400
		workers  = 2
		pins     = 3
	)
	for _, streams := range []int{1, 2, 4} {
		m, err := NewManager(Config{
			Dir:       t.TempDir(),
			PageSize:  pageSize,
			Workers:   workers,
			PoolPages: streams*pins + MinPoolPages(workers, streams),
			A:         arena.New(1 << 20),
		})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		errs := make(chan error, streams)
		var pinned sync.WaitGroup
		pinned.Add(streams)
		for s := 0; s < streams; s++ {
			go func() { errs <- chunkLoop(m, n, width, pins, &pinned) }()
		}
		timeout := time.After(30 * time.Second)
		for s := 0; s < streams; s++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("%d streams: %v", streams, err)
				}
			case <-timeout:
				t.Fatalf("%d streams on a %d-page pool did not finish: a stream starved", streams, cap(m.pool))
			}
		}
		drainPool(t, m)
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// chunkLoop writes n tuples to a fresh partition and reads it back as
// the spilled-pair join does: pins pages held while a second reader
// streams every page past them, two chunks' worth. It waits on ready
// once it holds its first chunk.
func chunkLoop(m *Manager, n, width, pins int, ready *sync.WaitGroup) error {
	w, err := m.NewWriter()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := w.Append(tupleFor(i, width), uint32(i)); err != nil {
			return err
		}
	}
	if err := w.Finish(); err != nil {
		return err
	}
	br := w.OpenReader()
	defer br.Close()
	for chunk := 0; chunk < 2; chunk++ {
		var pinned []Page
		for len(pinned) < pins {
			pg, ok, err := br.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			pinned = append(pinned, pg)
		}
		if chunk == 0 {
			ready.Done()
			ready.Wait()
		}
		pr := w.OpenReader()
		got := 0
		for {
			pg, ok, err := pr.Next()
			if err != nil {
				pr.Close()
				return err
			}
			if !ok {
				break
			}
			got += pg.NTuples()
			m.Release(pg)
		}
		pr.Close()
		for _, pg := range pinned {
			m.Release(pg)
		}
		if got != n {
			return fmt.Errorf("chunk %d streamed %d tuples, want %d", chunk, got, n)
		}
	}
	return nil
}
