package native

import (
	"encoding/binary"
	"runtime"
	"sync"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// BuildSide is a finished, immutable row table packaged for reuse: build
// once, probe from any number of goroutines. NewTypedProber hands out
// independent probe scratch over the shared table, which nothing
// mutates after BuildRelation returns — that immutability is the whole
// contract, and what lets the multi-tenant service keep one resident
// build side per pair and serve N concurrent queries without
// rebuilding.
//
// The table's memory lives on the Go heap, not the query's arena
// window, precisely so the handle can outlive the query that built it
// (arena windows are reclaimed at release; see internal/sched). Bytes
// reports the resident footprint for cache accounting.
type BuildSide struct {
	t *RowTable
}

// BuildConfig tunes a concurrent build. The zero value builds serially
// on the calling goroutine with the Group scheme's defaults.
type BuildConfig struct {
	// Scheme selects the build loop's prefetch restructuring; G and D
	// are its parameters (0 = native defaults).
	Scheme Scheme
	G, D   int

	// Workers bounds the concurrent build slots; <1 means GOMAXPROCS.
	Workers int

	// Pool, when non-nil, runs the build's morsels on a shared worker
	// pool (the multi-tenant scheduler); nil uses dedicated goroutines.
	// Tenant and Weight identify the owning query for a shared Pool.
	Pool   Pool
	Tenant string
	Weight int
}

// minBuildMorsel is the fewest rows worth a build morsel of their own:
// below it the pool round trip costs more than the rows.
const minBuildMorsel = 1024

// tablePool holds the tables Release handed back, for BuildRelation to
// build into: a query-lifetime table costs its successor no allocation
// and no zeroing of a slab it overwrites anyway. sync.Pool drops a
// table idle for two GC cycles, so the pool pins nothing.
var tablePool sync.Pool

// BuildRelation builds a row table over rel's tuples in one pass over
// its pages; row i is the i-th tuple in storage order. The pages are cut
// into one contiguous range per build slot, and each morsel serializes
// its range's tuples and publishes them with a CAS on their code's
// directory slot (RowTable.buildPages) — a worker reads another's row
// only after the CAS that published it, so nothing separates the two. A
// build of a single morsel — one worker, one page, or fewer than two
// morsels' worth of rows — runs on the calling goroutine with plain
// stores and never reaches the pool: RowTable.BuildSerial's table, byte
// for byte. Which slot a code takes and chain order in a concurrent
// build depend on CAS timing, so that result equals a serial build as a
// multiset of rows per hash code — the join-output contract.
//
// width is how many leading bytes of each tuple a row keeps: at least 4
// (the uint32 join key, which the probe compares in the row) and at most
// the schema's fixed width. A caller whose probers' consumers read only
// a prefix — the engine's counted or aggregated streaming join — passes
// that prefix; a side that serves any consumer (a prepared, cached
// BuildSide) passes the whole width, which Width then reports. On error
// (cancellation through a shared pool, pool shutdown) the partial table
// is abandoned and nil is returned.
func BuildRelation(rel *storage.Relation, width int, cfg BuildConfig) (*BuildSide, error) {
	scfg := Config{Scheme: cfg.Scheme, G: cfg.G, D: cfg.D}.normalized()
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	data, np := rel.Arena().Data(), rel.NPages()
	nMorsels := min(workers, (rel.NTuples+minBuildMorsel-1)/minBuildMorsel, np)

	t, _ := tablePool.Get().(*RowTable)
	if t == nil {
		t = &RowTable{}
	}
	t.Reset(rel.NTuples, width, 0)
	if nMorsels <= 1 {
		t.buildPages(data, rel.Pages, rel.PageSize, 0, scfg.Scheme, scfg.G, scfg.D, false)
		return &BuildSide{t: t}, nil
	}
	// The row number of each morsel's first tuple: a prefix sum of the
	// page headers' tuple counts.
	per := (np + nMorsels - 1) / nMorsels
	first := make([]int, 0, nMorsels)
	row := 0
	for i, page := range rel.Pages {
		if i%per == 0 {
			first = append(first, row)
		}
		row += int(binary.LittleEndian.Uint16(data[page-arena.Base:]))
	}
	err := RunMorsels(cfg.Pool, &MorselJob{
		Tenant: cfg.Tenant,
		Weight: cfg.Weight,
		N:      len(first),
		Slots:  workers,
		Run: func(_, i int) error {
			lo := i * per
			t.buildPages(data, rel.Pages[lo:min(lo+per, np)], rel.PageSize, first[i], scfg.Scheme, scfg.G, scfg.D, true)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &BuildSide{t: t}, nil
}

// Release hands the table's memory back for the next BuildRelation to
// build into; b must not be used afterwards. Only the builder of a
// table that lived for one query may call it, once every prober over b
// has returned (the engine: once its join has run, every prober and the
// right-outer sweep with it). A handle that was shared
// — cached, passed as a prebuilt side — is never released: its probers
// belong to queries its builder cannot see, and dropping the last
// reference frees it. No emit callback may keep the build bytes it was
// handed past its return; after Release they are another query's rows.
func (b *BuildSide) Release() {
	tablePool.Put(b.t)
	b.t = nil
}

// NewTypedProber returns fresh probe scratch over the shared table that
// emits per jt's contract (see jointype.go — left-outer unmatched rows
// arrive with build == nil, semi/anti emit the probe side only, right
// outer accumulates a build-row match bitmap drained by
// EmitUnmatchedBuild at end of stream). The table holds the whole build
// side, so left outer/semi/anti resolve each probe row inline within its
// batch and need no end-of-stream pass. The scheme's probe
// restructuring and G/D need not match the ones the table was built
// with. Each Prober is single-goroutine; create one per concurrent probe
// stream. Each owns its private match bitmaps — the shared table itself
// is never written — so N concurrent typed probe streams over one
// BuildSide stay independent: a right-outer stream's build-row bits, for
// example, cannot leak into a sibling semi-join stream's short-circuit
// decisions.
func (b *BuildSide) NewTypedProber(jt plan.JoinType, scheme Scheme, g, d int) *Prober {
	cfg := Config{Scheme: scheme, G: g, D: d}.normalized()
	j := newPairJoiner()
	j.t = b.t
	j.g, j.d = cfg.G, cfg.D
	j.joinType = jt
	if jt == plan.RightOuter {
		j.armBuildMatched(b.t.NRows())
	}
	return &Prober{j: j, scheme: scheme}
}

// NRows returns the build tuple count.
func (b *BuildSide) NRows() int { return b.t.NRows() }

// Width returns the serialized bytes of each tuple a row keeps.
func (b *BuildSide) Width() int { return b.t.Width() }

// Bytes returns the table's resident heap footprint, for cache
// accounting.
func (b *BuildSide) Bytes() int { return b.t.Bytes() }
