package native

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
)

// Out-of-core tier of the degradation ladder. A pair that is still over
// budget when its build side is one hash code, or when recursive
// re-partitioning runs out of depth or hash bits — irreducible
// duplicate-code skew — no longer fails: it is spilled to
// disk through internal/spill and joined in build-side chunks, each
// chunk's hash table sized to the budget, with the probe partition
// streamed past every chunk (the classic GRACE fallback, §2 of the
// paper, with the write-behind/read-ahead overlap iosim models). The
// reducible path therefore never returns *BudgetError; only Config.
// NoSpill restores the old failure mode.
//
// Both sides spill as pages of the row table's rows (link | code |
// tuple, see internal/spill's integrity.go). A spilled build row carries
// only the bytes of its tuple the join's tables keep (buildWidth), so a
// build page read back is a segment of a chunk table's slab: one copy
// per page, then the rows are linked. Probe rows carry whole tuples,
// which sinks read from the pinned pages. Budget decisions (hot codes,
// the resident prefix) charge the whole tuple; only chunkPages counts
// page bytes.

// spillChunkPagesCap bounds how many build pages one chunk pins, so a
// huge budget does not translate into a huge buffer pool.
const spillChunkPagesCap = 256

// spillState is the per-Join spill coordinator, shared by all morsel
// workers of one Joiner.Join call. The Manager (and its temp directory)
// is created lazily on the first spill; mu guards only that creation and
// the spilled-pair count. Every morsel slot can join a spilled pair at
// once, each with its own Writers, Readers and pinned chunk. What keeps
// them from starving one another is the Manager's page pool, sized for
// slots concurrent pairs (poolPages); the Manager's own state is safe
// for concurrent use.
type spillState struct {
	a          *arena.Arena
	dir        string
	workers    int
	slots      int // spilled pairs in flight at most: the join's morsel slots
	buildWidth int // bytes a spilled build tuple keeps: the tables' row width
	probeWidth int // whole probe tuples
	budget     int
	pageSize   int
	ctx        context.Context // nil: never cancelled

	// scheme, g and d restructure the partition write's tuple copies as
	// they restructure the build and probe loops (see spillPartition).
	scheme Scheme
	g, d   int

	mu    sync.Mutex
	m     *spill.Manager
	merr  error // sticky Manager creation failure
	pairs int   // partition pairs that went through the spill tier
}

// newSpillState returns the spill coordinator for a join whose morsel
// phase runs slots slots and whose tables keep rowWidth bytes of each
// build tuple, or nil when spilling is disabled or the schemas cannot
// round-trip through fixed-width row pages (variable width, or no
// leading 4-byte key to re-decode).
func newSpillState(build, probe *storage.Relation, cfg Config, slots, rowWidth int) *spillState {
	if cfg.NoSpill {
		return nil
	}
	bs, ps := build.Schema, probe.Schema
	if bs.HasVar() || ps.HasVar() || bs.FixedWidth() < 4 || ps.FixedWidth() < 4 {
		return nil
	}
	// The spill tier's page pool comes from the query's scratch arena
	// when one is set (multi-tenant: the carved window), else from the
	// arena the relations live in (single-query: same thing).
	scratch := cfg.Arena
	if scratch == nil {
		scratch = build.Arena()
	}
	return &spillState{
		a:          scratch,
		dir:        cfg.SpillDir,
		workers:    cfg.spillWorkers(),
		slots:      slots,
		buildWidth: rowWidth,
		probeWidth: ps.FixedWidth(),
		budget:     cfg.MemBudget,
		pageSize:   cfg.spillPage(),
		ctx:        cfg.Ctx,
		scheme:     cfg.Scheme,
		g:          cfg.G,
		d:          cfg.D,
	}
}

// spillWorkers and spillPage resolve the spill tier's two tunables to
// the values its Manager runs with. The chunk arithmetic, the Manager's
// pool and SpillPoolBytes all read them here, so the budget a chunk is
// sized for, the pages actually allocated and the scratch planned for
// them can never disagree.
func (c Config) spillWorkers() int {
	if c.SpillWorkers < 1 {
		return spill.DefaultWorkers
	}
	return c.SpillWorkers
}

func (c Config) spillPage() int {
	if c.SpillPageSize > 0 {
		return c.SpillPageSize
	}
	return spill.DefaultPageSize
}

// chunkPages returns how many build pages one chunk pins: the largest
// count whose pages + hash table fit the budget, clamped to [1,
// spillChunkPagesCap]. A chunk's rows go from its pages straight into
// the table, so a row costs its table share of rowFootprint and no
// entry. Even chunkPages == 1 always makes progress — that is why the
// spill tier cannot fail on size. It counts the width the pages carry:
// a page of 4-byte rows holds 9x the tuples, and so 9x the table, of a
// page of 100-byte ones.
func (sp *spillState) chunkPages() int {
	perPage := sp.pageSize +
		spill.PageCapacity(sp.pageSize, sp.buildWidth)*(rowFootprint(sp.buildWidth)-entrySize)
	return min(max(sp.budget/perPage, 1), spillChunkPagesCap)
}

// morselSlots is how many slots a join's morsel phase runs over fanout
// partition pairs: one per worker, never more than the pairs. It is
// also how many spilled pairs can be in flight at once, one per slot.
func (c Config) morselSlots(fanout int) int {
	return max(1, min(c.Workers, fanout))
}

// poolPages is the Manager's page pool: for every slot, one chunk of
// pinned build pages plus the pages its writes and reads hold, and the
// write-behind pipeline the slots share.
func (sp *spillState) poolPages() int {
	slots := max(sp.slots, 1)
	return slots*sp.chunkPages() + spill.MinPoolPages(sp.workers, slots)
}

// SpillPoolBytes bounds the arena scratch the out-of-core tier claims
// for its page pool under cfg — what admission and arena sizing plan
// for before any relation exists. Zero when the tier cannot engage
// (unbudgeted or disabled). chunkPages divides the budget by a page
// plus its tuples' table overhead; dividing by the page alone bounds it
// for every build width. A fan-out of 0 stands for one the planner has
// not decided yet, so the slots are bounded by the workers alone. 64
// KiB of slack covers the pool's alignment.
func SpillPoolBytes(cfg Config) uint64 {
	if cfg.MemBudget <= 0 || cfg.NoSpill {
		return 0
	}
	page := cfg.spillPage()
	chunk := min(cfg.MemBudget/page+1, spillChunkPagesCap)
	n := cfg.normalized()
	slots := n.Workers
	if cfg.Fanout > 0 {
		slots = n.morselSlots(n.Fanout)
	}
	return uint64(slots*chunk+spill.MinPoolPages(cfg.spillWorkers(), slots))*uint64(page) + (64 << 10)
}

// manager returns the spill Manager for one more spilled pair, creating
// it on the first; the failure is sticky so every spilled pair after a
// failed creation reports the same error instead of retrying the
// filesystem.
func (sp *spillState) manager() (*spill.Manager, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.m == nil && sp.merr == nil {
		sp.m, sp.merr = spill.NewManager(spill.Config{
			Dir:       sp.dir,
			PageSize:  sp.pageSize,
			Workers:   sp.workers,
			PoolPages: sp.poolPages(),
			A:         sp.a,
			Ctx:       sp.ctx,
		})
	}
	if sp.merr == nil {
		sp.pairs++
	}
	return sp.m, sp.merr
}

// available reports whether the out-of-core tier can accept a pair: the
// Manager either exists (or can still be created) and at least one
// configured spill directory is healthy. joinPairBudget consults it
// before committing a pair to disk; a false answer degrades the pair
// back up the ladder (or sheds it with unavailable()).
func (sp *spillState) available() bool {
	sp.mu.Lock()
	bad := sp.merr != nil
	sp.mu.Unlock()
	return !bad && spill.AnyHealthy(sp.dir)
}

// unavailable builds the typed shed error for a pair the out-of-core
// tier cannot take.
func (sp *spillState) unavailable() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return spill.Unavailable(sp.dir, sp.merr)
}

// finish closes the Manager — removing every spill file — and reports
// the harvested I/O stats and spilled pair count. Safe on a nil
// spillState and idempotent, so Joiner.Join can call it on both the
// normal return and the panic-unwind path. Joiner.Join calls it after
// the morsel phase, so no spilled pair is still running.
func (sp *spillState) finish() (spill.Stats, int, error) {
	if sp == nil || sp.m == nil {
		return spill.Stats{}, 0, nil
	}
	st := sp.m.Stats()
	err := sp.m.Close()
	sp.m = nil
	return st, sp.pairs, err
}

// joinPairSpill joins the spilled remainder of one irreducible
// over-budget pair out of core, for joinPairSpillHybrid: write both
// sides to disk partitions (write-behind), then for each
// build chunk that fits the budget, pin its pages, copy their rows into
// a table and link them, and stream the probe partition past it
// (read-ahead). Output refs point into pinned pool pages, so the
// emit/sink path is identical to the in-memory join's. Each morsel slot
// runs its own spilled pair concurrently with the others'.
func (j *pairJoiner) joinPairSpill(build, probe []Entry, shift uint, cfg Config) error {
	sp := j.spill
	m, err := sp.manager()
	if err != nil {
		return err
	}

	bs := &spillSide{data: j.data, entries: build, width: sp.buildWidth}
	if err := sp.writeSide(m, bs); err != nil {
		return err
	}
	ps := &spillSide{data: j.data, entries: probe, width: sp.probeWidth}
	if err := sp.writeSide(m, ps); err != nil {
		return err
	}

	chunkPages := sp.chunkPages()
	br := sp.openSide(m, bs)
	defer br.Close()
	defer j.releasePinned(m)
	var pr *sideReader
	defer func() {
		if pr != nil {
			pr.Close()
		}
	}()

	// Left outer/semi/anti cannot decide "unmatched" against one build
	// chunk, so the chunk loop runs with the deferred probe bitmap that
	// joinPairSpillHybrid armed before its resident pass.
	// spillPartition writes probe entries in slice order and the reader
	// streams pages back in that order, so a probe row's stream position
	// equals its index in the probe slice — the same indexing the
	// resident prefix uses, which is what lets bits set before the
	// resident/spilled seam resolve here.
	defer func() { j.deferProbe = false; j.probeBase = 0 }()

	for {
		rows := 0
		for len(j.spillPinned) < chunkPages {
			pg, ok, err := br.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			j.spillPinned = append(j.spillPinned, pg)
			rows += pg.NTuples()
		}
		if rows == 0 {
			break
		}
		j.buildChunk(rows, shift)

		pr = sp.openSide(m, ps)
		pos := 0
		for {
			pg, ok, err := pr.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			j.spillProbe = appendPageEntries(j.spillProbe[:0], pg)
			j.probeBase = pos
			j.probeFor(&probeInput{ents: j.spillProbe}, cfg.Scheme)
			pos += len(j.spillProbe)
			m.Release(pg)
		}
		pr.Close()
		pr = nil
		// Each build row lives in exactly one chunk, so this chunk's
		// table can be swept for unmatched build rows right away.
		if j.joinType == plan.RightOuter {
			j.sweepUnmatchedBuild()
		}
		j.releasePinned(m)
	}
	if j.deferProbe {
		j.probeBase = 0
		j.finishProbeBits(probe)
	}
	return nil
}

// buildChunk builds the chunk table over the rows of the pinned build
// pages. A page's rows are the table's rows already, so each page is one
// copy into the slab at its first row's offset; the rows are then
// linked in place.
func (j *pairJoiner) buildChunk(rows int, shift uint) {
	j.t.reset(rows, j.t.width, shift, false)
	off := 0
	for _, pg := range j.spillPinned {
		off += copy(j.t.rows[off:], pg.Rows())
	}
	j.t.insertSerialRange(0, rows)
	if j.joinType == plan.RightOuter {
		j.armBuildMatched(rows)
	}
}

// releasePinned hands the current chunk's build pages back to m.
func (j *pairJoiner) releasePinned(m *spill.Manager) {
	for _, p := range j.spillPinned {
		m.Release(p)
	}
	j.spillPinned = j.spillPinned[:0]
}

// spillSide is one side of a spilled pair together with its immutable
// in-memory source: the entries still reference arena-resident tuples,
// so a partition whose file fails or corrupts can be rebuilt bit-for-bit
// (spillPartition appends in slice order, so the rebuilt stream decodes
// to the identical entry sequence). rebuilt bounds recovery to one
// rebuild attempt per partition — a second failure propagates.
type spillSide struct {
	data    []byte
	entries []Entry
	width   int
	w       *spill.Writer
	rebuilt bool
}

// spillPartition writes one side's entries to a disk partition, one
// row each: the memoized hash code (§7.1), so nothing is recomputed on
// the way back in, and the tuple's first width bytes. On failure the
// partially written Writer (when one was created) is returned alongside
// the error so the caller can quarantine it.
//
// The partition phase read only slots, so the copy into the page is the
// first touch of each tuple's bytes and misses. The scheme hides that
// miss as the paper's partition phase does (§6): Group prefetches every
// cache line of the next G tuples, then appends those G; Pipelined
// prefetches tuple i+D while appending tuple i; Baseline appends
// without a prefetch. A prefetch is only a hint, so the file is the
// same under every scheme.
func (sp *spillState) spillPartition(m *spill.Manager, data []byte, entries []Entry, width int) (*spill.Writer, error) {
	w, err := m.NewWriter()
	if err != nil {
		return nil, err
	}
	step := 1
	if sp.scheme == Group {
		step = sp.g
	}
	n, w64 := len(entries), uint64(width)
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		switch sp.scheme {
		case Group:
			for i := lo; i < hi; i++ {
				prefetchTuple(data, entries[i].Ref, w64)
			}
		case Pipelined:
			if nx := lo + sp.d; nx < n {
				prefetchTuple(data, entries[nx].Ref, w64)
			}
		}
		for i := lo; i < hi; i++ {
			base := entries[i].Ref - arena.Base
			if err := w.Append(data[base:base+w64], entries[i].Code); err != nil {
				return w, err
			}
		}
	}
	if err := w.Finish(); err != nil {
		return w, err
	}
	return w, nil
}

// prefetchTuple prefetches every cache line of the width bytes at arena
// address ref.
func prefetchTuple(data []byte, ref, width uint64) {
	base := ref - arena.Base
	for off := base &^ 63; off < base+width; off += 64 {
		prefetchT0(unsafe.Pointer(&data[off]))
	}
}

// writeSide spills one side to disk with directory failover: a write
// that fails with a *DirFailedError (the directory is now marked
// unhealthy) quarantines the partial file and rewrites the partition,
// which lands on the next healthy directory. The loop is bounded by the
// configured directory count; when every directory has failed in turn
// the typed *SpillUnavailableError sheds the query.
func (sp *spillState) writeSide(m *spill.Manager, s *spillSide) error {
	var lastErr error
	for attempt := 0; attempt <= len(m.Dirs()); attempt++ {
		w, err := sp.spillPartition(m, s.data, s.entries, s.width)
		if err == nil {
			s.w = w
			return nil
		}
		var dfe *spill.DirFailedError
		if !errors.As(err, &dfe) {
			return err
		}
		if w != nil {
			m.Quarantine(w)
			m.NoteRebuild()
		}
		lastErr = err
	}
	return spill.Unavailable(sp.dir, lastErr)
}

// sideReader streams a spilled side back, recovering from a failed or
// corrupt partition file by rebuilding it from the in-memory source and
// resuming at the exact page where the stream left off. Pages are
// written (and therefore decoded) deterministically, so the resumed
// stream is indistinguishable from an unfailed one — that is what makes
// recovery output bit-identical.
type sideReader struct {
	sp        *spillState
	m         *spill.Manager
	side      *spillSide
	r         *spill.Reader
	delivered int // pages already handed to the caller this pass
}

// openSide starts one streaming pass over a spilled side.
func (sp *spillState) openSide(m *spill.Manager, s *spillSide) *sideReader {
	return &sideReader{sp: sp, m: m, side: s, r: s.w.OpenReader()}
}

// Next delivers the next page, transparently rebuilding the partition
// on a recoverable failure.
func (sr *sideReader) Next() (spill.Page, bool, error) {
	for {
		pg, ok, err := sr.r.Next()
		if err == nil {
			if ok {
				sr.delivered++
			}
			return pg, ok, nil
		}
		if rerr := sr.recover(err); rerr != nil {
			return spill.Page{}, false, rerr
		}
	}
}

// Close releases the underlying reader's in-flight buffer.
func (sr *sideReader) Close() { sr.r.Close() }

// recover handles one read failure: quarantine the file, rebuild the
// partition from the immutable in-memory source (once per partition),
// reopen, and skip the pages already delivered. Cancellation and
// second failures propagate unchanged.
func (sr *sideReader) recover(cause error) error {
	if sr.sp.ctx != nil && sr.sp.ctx.Err() != nil {
		return cause
	}
	if sr.side.rebuilt {
		return cause
	}
	sr.side.rebuilt = true
	// Order matters: Close drains the in-flight read-ahead before
	// Quarantine closes the file under it.
	sr.r.Close()
	sr.m.Quarantine(sr.side.w)
	sr.m.NoteRebuild()
	if err := sr.sp.writeSide(sr.m, sr.side); err != nil {
		return err
	}
	r := sr.side.w.OpenReader()
	for i := 0; i < sr.delivered; i++ {
		pg, ok, err := r.Next()
		if err != nil {
			r.Close()
			return err
		}
		if !ok {
			r.Close()
			return fmt.Errorf("native: rebuilt spill partition %s has %d pages, resuming at %d: %w",
				sr.side.w.Path(), i, sr.delivered, cause)
		}
		sr.m.Release(pg)
	}
	sr.r = r
	return nil
}

// appendPageEntries decodes a spilled probe page's rows into join
// entries. Refs address each row's tuple in the pool buffer the page
// sits in, so they are valid exactly while the page is held — the chunk
// loop's pin discipline.
func appendPageEntries(dst []Entry, pg spill.Page) []Entry {
	rows, ref := pg.Rows(), uint64(pg.RowsAddr())+rowKeyOff
	for off := 0; off < len(rows); off += rowHdrSize + pg.Width() {
		dst = append(dst, Entry{
			Code: binary.LittleEndian.Uint32(rows[off+rowCodeOff:]),
			Key:  binary.LittleEndian.Uint32(rows[off+rowKeyOff:]),
			Ref:  ref + uint64(off),
		})
	}
	return dst
}
