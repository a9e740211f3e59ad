// Package spill is the out-of-core tier of the native join's degradation
// ladder: disk-backed GRACE partitions with asynchronous write-behind and
// double-buffered read-ahead — the overlap structure internal/iosim
// models cycle-by-cycle (the paper's Figure 9 claim that partition I/O
// hides behind compute), realized here on real files.
//
// A Manager owns a spill area spread over one or more parent directories
// and a fixed pool of reusable page-sized buffers allocated from the
// join's arena. Partition Writers encode tuples into internal/storage
// slotted pages — reusing the memoized-hash-code slot layout of section
// 7.1, so spilled partitions carry their hash codes back without
// recomputation — and hand full pages to background writer goroutines
// (write-behind). Readers stream a partition back with one page of
// read-ahead in flight, so the next page's disk latency overlaps the
// current page's probe work.
//
// The tier is self-healing: I/O errors that indict a directory (ENOSPC,
// EIO, EROFS, ...) mark that directory unhealthy in a process-wide
// registry (see health.go) and surface as a *DirFailedError, so the
// caller can rebuild the partition on the next healthy directory instead
// of failing the query; a corrupt or lost partition file is quarantined
// with Quarantine and rebuilt the same way. Only when every configured
// directory is down does the tier report *SpillUnavailableError.
//
// Buffers live in the arena rather than on the Go heap for one load-
// bearing reason: the native engine addresses every tuple by arena
// address (Entry.Ref indexes the arena's backing slice), so a tuple read
// back from disk into an arena-backed page is immediately joinable — its
// refs flow through the same emit/sink path as resident tuples, and the
// pool is reclaimed by the run's arena scope like any other scratch.
package spill

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/fault"
)

const (
	// DefaultPageSize is the spill page size. Slotted pages address
	// tuples with u16 offsets, so pages must stay under 64 KiB; 32 KiB
	// amortizes syscall cost while keeping the buffer pool small.
	DefaultPageSize = 32 << 10
	// DefaultWorkers is the write-behind worker count: enough to overlap
	// one partition's writes with the next page's encoding without
	// claiming many buffers.
	DefaultWorkers = 2
	// minPageSize bounds PageSize from below (tests shrink pages to
	// force multi-page partitions).
	minPageSize = 256
	// maxPageSize keeps every slot offset and the free pointer
	// representable as u16.
	maxPageSize = 63 << 10
)

// Config sizes a Manager.
type Config struct {
	// Dir is the parent directory spec for the spill area: an ordered,
	// comma-separated list of directories ("" means the OS temp
	// directory). The Manager creates (and removes on Close) its own
	// subdirectory inside each parent it actually uses, preferring
	// earlier entries and failing over to later ones when a directory
	// turns unhealthy mid-join.
	Dir string
	// PageSize is the spill page size in bytes; 0 selects
	// DefaultPageSize.
	PageSize int
	// Workers is the write-behind goroutine count; <1 selects
	// DefaultWorkers.
	Workers int
	// PoolPages is the buffer pool size; it is raised to at least what
	// the write and read paths need to make progress.
	PoolPages int
	// IOAttempts bounds how many times one page I/O is tried before its
	// error is declared permanent; <1 selects DefaultIOAttempts.
	IOAttempts int
	// IOBackoff is the first retry's sleep (each further retry waits 4x
	// longer); <=0 selects DefaultIOBackoff.
	IOBackoff time.Duration
	// A is the arena the buffer pool is allocated from. Required.
	A *arena.Arena
	// Ctx, when non-nil, cancels spilling cooperatively: Writers check it
	// at page boundaries and Readers before each delivered page, so a
	// cancelled join stops within one page of I/O.
	Ctx context.Context
}

// Stats is a snapshot of a Manager's I/O counters.
type Stats struct {
	Partitions   int // partition files created
	PagesWritten int64
	BytesWritten int64
	PagesRead    int64
	BytesRead    int64

	// WriteRetries and ReadRetries count page I/Os that were retried
	// after a transient error (bounded retry with backoff); permanent
	// errors skip retry and fail the join via the sticky first error.
	WriteRetries int64
	ReadRetries  int64

	// Failovers counts directories this Manager declared failed (and
	// marked unhealthy in the process-wide registry) before moving on to
	// the next one. Rebuilds counts partitions whose spill data was
	// rebuilt from the in-memory source after a failure (NoteRebuild).
	// Quarantined counts partition files set aside by Quarantine.
	Failovers   int64
	Rebuilds    int64
	Quarantined int64

	// WriteStall is time spent waiting for a free pool buffer on the
	// encode path — the time write-behind failed to hide. ReadStall is
	// time spent waiting for an in-flight read — the time read-ahead
	// failed to hide.
	WriteStall time.Duration
	ReadStall  time.Duration
}

// Manager owns a spill area: the temp directories, the buffer pool, and
// the write-behind workers. Close is idempotent and removes every file
// the Manager created; callers defer it on both the normal and the
// panic path, so a crashed join leaves no orphans.
type Manager struct {
	a        *arena.Arena
	parents  []string // configured parent directories, in preference order
	subdirs  []string // created per-parent subdirectories; "" until used
	pageSize int
	ctx      context.Context // nil: never cancelled

	ioAttempts int
	ioBackoff  time.Duration

	pool   chan pageBuf
	writeq chan writeReq
	wwg    sync.WaitGroup // write-behind workers
	rwg    sync.WaitGroup // in-flight read-ahead goroutines

	mu     sync.Mutex
	files  []*os.File
	nfiles int
	closed bool

	partitions   atomic.Int64
	pagesWritten atomic.Int64
	bytesWritten atomic.Int64
	pagesRead    atomic.Int64
	bytesRead    atomic.Int64
	writeRetries atomic.Int64
	readRetries  atomic.Int64
	failovers    atomic.Int64
	rebuilds     atomic.Int64
	quarantined  atomic.Int64
	writeStallNs atomic.Int64
	readStallNs  atomic.Int64
}

// writeReq is one full page travelling to a write-behind worker.
type writeReq struct {
	w   *Writer
	idx int // page index within the partition, sealed into the header
	off int64
	buf pageBuf
}

// MinPoolPages is the smallest buffer pool a Manager with that many
// write-behind workers runs on when streams callers spill and read at
// once: the write path's shared pages (the write queue and the in-flight
// writes, three per worker) plus four per stream (the page it encodes,
// or the read-ahead of each of its two open readers and the page it
// consumes, with one to spare) must all hold a buffer without starving
// each other. A
// caller pinning pages of its own sizes its pool as its pins, for every
// stream, plus this.
func MinPoolPages(workers, streams int) int { return 3*workers + 4*streams }

// NewManager creates the spill area and starts the write-behind workers.
// The buffer pool is allocated from cfg.A up front, so a join that
// cannot afford its spill scratch fails here, before any file exists.
// When every configured directory is unhealthy (and fails its revival
// probe) the error is a *SpillUnavailableError.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.A == nil {
		return nil, fmt.Errorf("spill: Config.A is required")
	}
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < minPageSize || pageSize > maxPageSize {
		return nil, fmt.Errorf("spill: page size %d outside [%d, %d]", pageSize, minPageSize, maxPageSize)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = DefaultWorkers
	}
	attempts := cfg.IOAttempts
	if attempts < 1 {
		attempts = DefaultIOAttempts
	}
	backoff := cfg.IOBackoff
	if backoff <= 0 {
		backoff = DefaultIOBackoff
	}
	poolPages := max(cfg.PoolPages, MinPoolPages(workers, 1))

	parents := ParseDirs(cfg.Dir)
	m := &Manager{
		a:          cfg.A,
		parents:    parents,
		subdirs:    make([]string, len(parents)),
		pageSize:   pageSize,
		ctx:        cfg.Ctx,
		ioAttempts: attempts,
		ioBackoff:  backoff,
		pool:       make(chan pageBuf, poolPages),
		writeq:     make(chan writeReq, 2*workers),
	}
	// Create the first usable parent's subdirectory up front: a join
	// whose spill area cannot exist at all should fail before any page
	// is encoded, and with the same typed error a mid-join exhaustion
	// produces.
	if _, err := m.ensureSubdirLocked(); err != nil {
		return nil, err
	}
	for i := 0; i < poolPages; i++ {
		addr, err := cfg.A.TryAlloc(uint64(pageSize), 64)
		if err != nil {
			m.removeSubdirs()
			return nil, err
		}
		m.pool <- pageBuf{addr: addr, b: cfg.A.Bytes(addr, uint64(pageSize))}
	}
	m.wwg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.writeWorker()
	}
	return m, nil
}

// ensureSubdirLocked finds the first healthy parent directory and
// creates this Manager's subdirectory in it (if not already created),
// returning the parent's index. Parents whose subdirectory creation
// fails with a directory-class error are marked unhealthy and skipped —
// that is the create-time half of failover. Callers hold m.mu (or, in
// NewManager, exclusive ownership).
func (m *Manager) ensureSubdirLocked() (int, error) {
	var lastErr error
	for i, parent := range m.parents {
		if !dirHealthy(parent) {
			continue
		}
		if m.subdirs[i] != "" {
			return i, nil
		}
		dir, err := os.MkdirTemp(parent, "hjspill-")
		if err != nil {
			if dirPermanent(err) {
				lastErr = m.dirFailed(i, err)
				continue
			}
			return 0, fmt.Errorf("spill: %w", err)
		}
		m.subdirs[i] = dir
		return i, nil
	}
	return 0, unavailableDirs(m.parents, lastErr)
}

// dirFailed marks a parent directory unhealthy in the process-wide
// registry, counts the failover, and returns the typed wrapper the
// caller hands up so the partition can be rebuilt elsewhere.
func (m *Manager) dirFailed(idx int, cause error) *DirFailedError {
	markDirUnhealthy(m.parents[idx], cause)
	m.failovers.Add(1)
	return &DirFailedError{Dir: m.parents[idx], Cause: cause}
}

// Dir returns the Manager's first created spill subdirectory (removed
// by Close), for diagnostics.
func (m *Manager) Dir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.subdirs {
		if d != "" {
			return d
		}
	}
	return ""
}

// Dirs returns the configured parent directory list.
func (m *Manager) Dirs() []string { return m.parents }

// PageSize returns the spill page size in bytes.
func (m *Manager) PageSize() int { return m.pageSize }

// NoteRebuild counts one partition rebuilt from its in-memory source
// after a spill failure; the native tier calls it when it re-spills.
func (m *Manager) NoteRebuild() { m.rebuilds.Add(1) }

// Stats snapshots the I/O counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Partitions:   int(m.partitions.Load()),
		PagesWritten: m.pagesWritten.Load(),
		BytesWritten: m.bytesWritten.Load(),
		PagesRead:    m.pagesRead.Load(),
		BytesRead:    m.bytesRead.Load(),
		WriteRetries: m.writeRetries.Load(),
		ReadRetries:  m.readRetries.Load(),
		Failovers:    m.failovers.Load(),
		Rebuilds:     m.rebuilds.Load(),
		Quarantined:  m.quarantined.Load(),
		WriteStall:   time.Duration(m.writeStallNs.Load()),
		ReadStall:    time.Duration(m.readStallNs.Load()),
	}
}

// Close drains the write-behind queue, waits for in-flight reads,
// closes every partition file, and removes the spill subdirectories. It
// is idempotent; the first error encountered is returned — except
// removal failures on directories already marked unhealthy, which are
// expected on dead media and must not fail an otherwise-recovered join.
// Writers must not be appended to after Close begins (the native join
// closes its Manager only once every morsel slot, and so every spilled
// pair, has returned).
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	close(m.writeq)
	m.wwg.Wait()
	m.rwg.Wait()

	var first error
	for _, f := range m.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := fault.Hit(fault.SiteSpillRemove); err != nil {
		if first == nil {
			first = fmt.Errorf("spill: removing %s: %w", m.Dir(), err)
		}
	} else if err := m.removeSubdirs(); err != nil && first == nil {
		first = err
	}
	return first
}

// removeSubdirs removes every created spill subdirectory, swallowing
// failures on parents the registry already knows are unhealthy.
func (m *Manager) removeSubdirs() error {
	var first error
	for i, dir := range m.subdirs {
		if dir == "" {
			continue
		}
		if err := os.RemoveAll(dir); err != nil {
			if dirHealthy(m.parents[i]) && first == nil {
				first = err
			}
			continue
		}
		m.subdirs[i] = ""
	}
	return first
}

// ctxErr reports the Manager's cancellation state; nil Ctx never
// cancels.
func (m *Manager) ctxErr() error {
	if m.ctx == nil {
		return nil
	}
	return m.ctx.Err()
}

// writeWorker is the write-behind loop: pop a full page, write it at its
// partition offset, return the buffer to the pool.
func (m *Manager) writeWorker() {
	defer m.wwg.Done()
	for req := range m.writeq {
		m.writePage(req)
	}
}

// writePage seals and writes one page. Panics (fault-injected or
// otherwise) are contained into the writer's sticky error so the buffer
// still returns to the pool and pending.Done still runs — a failed write
// must never deadlock Finish or Close. A permanent error that indicts
// the directory (ENOSPC, EIO, ...) marks it unhealthy and becomes a
// *DirFailedError, the caller's signal to rebuild the partition on the
// next healthy directory.
func (m *Manager) writePage(req writeReq) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := fault.AsInjected(r); ok {
				req.w.setErr(e)
			} else {
				req.w.setErr(fmt.Errorf("spill: write worker panic: %v", r))
			}
		}
		m.release(req.buf)
		req.w.pending.Done()
	}()
	sealPage(req.buf.b, uint32(req.idx))
	err := m.retryIO(&m.writeRetries, func() error {
		if err := fault.Hit(fault.SiteSpillWrite); err != nil {
			return err
		}
		_, err := req.w.f.WriteAt(req.buf.b, req.off)
		return err
	})
	if err != nil {
		if dirPermanent(err) {
			req.w.setErr(m.dirFailed(req.w.dirIdx, err))
		} else {
			req.w.setErr(err)
		}
		return
	}
	m.pagesWritten.Add(1)
	m.bytesWritten.Add(int64(len(req.buf.b)))
}

// acquire takes a buffer from the pool, charging any wait to stallNs —
// the write path passes the write-stall counter, the read path the
// read-stall counter, so the stats separate "write-behind fell behind"
// from "read-ahead fell behind".
func (m *Manager) acquire(stallNs *atomic.Int64) pageBuf {
	select {
	case b := <-m.pool:
		return b
	default:
	}
	t0 := time.Now()
	b := <-m.pool
	stallNs.Add(int64(time.Since(t0)))
	return b
}

// Release returns a page delivered by a Reader to the buffer pool.
// Every page from Reader.Next must be released exactly once; holding a
// page pins its bytes (a chunk of spilled build tuples stays addressable
// while its hash table is probed).
func (m *Manager) Release(p Page) { m.release(p.buf) }

func (m *Manager) release(b pageBuf) { m.pool <- b }

// newFile creates the next partition file in the preferred healthy
// spill directory, reporting which parent it landed in.
func (m *Manager) newFile() (*os.File, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, fmt.Errorf("spill: manager closed")
	}
	if err := fault.Hit(fault.SiteSpillCreate); err != nil {
		return nil, 0, fmt.Errorf("spill: creating partition: %w", err)
	}
	for {
		idx, err := m.ensureSubdirLocked()
		if err != nil {
			return nil, 0, err
		}
		f, err := os.Create(filepath.Join(m.subdirs[idx], fmt.Sprintf("part-%04d.spill", m.nfiles)))
		if err != nil {
			if dirPermanent(err) {
				// The subdirectory existed but the create failed at the
				// directory level (disk filled or died since): fail the dir
				// over and retry the loop on the next healthy one —
				// ensureSubdirLocked returns *SpillUnavailableError once
				// every parent is down, which bounds the loop.
				m.dirFailed(idx, err)
				continue
			}
			return nil, 0, fmt.Errorf("spill: %w", err)
		}
		m.nfiles++
		m.files = append(m.files, f)
		m.partitions.Add(1)
		return f, idx, nil
	}
}

// Quarantine sets a failed partition file aside: the file is closed,
// renamed with a ".quarantined" suffix (best effort — the directory may
// be dead), and disowned by the Manager so Close does not double-close
// it. The caller then rebuilds the partition with a fresh Writer; the
// quarantined file stays on disk for post-mortem until the spill
// subdirectory is removed at Close.
func (m *Manager) Quarantine(w *Writer) {
	m.mu.Lock()
	for i, f := range m.files {
		if f == w.f {
			m.files = append(m.files[:i], m.files[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	name := w.f.Name()
	w.f.Close()
	if err := os.Rename(name, name+".quarantined"); err != nil {
		os.Remove(name) // dead dir or vanished file: nothing to keep
	}
	m.quarantined.Add(1)
}
