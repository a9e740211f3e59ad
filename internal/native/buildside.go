package native

import (
	"runtime"

	"hashjoin/internal/plan"
)

// BuildSide is a finished, immutable row table packaged for reuse: build
// once, probe from any number of goroutines. NewProber hands out
// independent probe scratch over the shared table, which nothing
// mutates after BuildRows returns — that immutability is the whole
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
// below it the two pool round trips cost more than the rows.
const minBuildMorsel = 1024

// BuildRows builds a row table over entries. A build of a single morsel
// — one worker, or fewer than two morsels' worth of rows — is
// RowTable.BuildSerial on the calling goroutine. Anything larger builds
// concurrently, in two barrier-separated phases over the same contiguous
// ranges:
//
//  1. Serialize: each morsel materializes its rows (disjoint slab
//     bytes, no coordination).
//  2. Publish: each morsel links its rows into the shared directory
//     with a CAS on the bucket head.
//
// The barrier between the phases (Pool.Do returns only after every
// in-flight morsel finishes) is what makes phase 2's plain reads of
// phase 1's writes safe. Chain order within a bucket depends on CAS
// timing, so the result equals a serial build as a multiset of rows per
// bucket — the join-output contract — not byte-for-byte.
//
// data must be the arena backing slice the entries' Refs point into;
// width the build schema's fixed tuple width (>= 4: the leading uint32
// join key). On error (cancellation through a shared pool, pool
// shutdown) the partial table is abandoned and nil is returned.
func BuildRows(data []byte, entries []Entry, width int, cfg BuildConfig) (*BuildSide, error) {
	scfg := Config{Scheme: cfg.Scheme, G: cfg.G, D: cfg.D}.normalized()
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(entries)
	nMorsels := min(workers, (n+minBuildMorsel-1)/minBuildMorsel)

	t := &RowTable{}
	t.Reset(n, width, 0)
	if nMorsels <= 1 {
		// One owner: plain stores, no pool, no barrier — what a one-worker
		// configuration or a tiny build pays is the serial build.
		t.BuildSerial(data, entries, scfg.Scheme, scfg.G, scfg.D)
		return &BuildSide{t: t}, nil
	}
	chunk := (n + nMorsels - 1) / nMorsels
	rangeOf := func(i int) (int, int) {
		lo := i * chunk
		return lo, min(lo+chunk, n)
	}

	serialize := func(_, i int) error {
		lo, hi := rangeOf(i)
		t.SerializeRange(data, entries, lo, hi)
		return nil
	}
	publish := func(_, i int) error {
		lo, hi := rangeOf(i)
		t.InsertRange(lo, hi, scfg.Scheme, scfg.G, scfg.D)
		return nil
	}
	for _, run := range []func(int, int) error{serialize, publish} {
		err := RunMorsels(cfg.Pool, &MorselJob{
			Tenant: cfg.Tenant,
			Weight: cfg.Weight,
			N:      nMorsels,
			Slots:  workers,
			Run:    run,
		})
		if err != nil {
			return nil, err
		}
	}
	return &BuildSide{t: t}, nil
}

// NewProber returns fresh probe scratch over the shared table. The
// scheme's probe restructuring and G/D need not match the ones the
// table was built with. Each Prober is single-goroutine; create one per
// concurrent probe stream.
func (b *BuildSide) NewProber(scheme Scheme, g, d int) *Prober {
	return b.NewTypedProber(plan.Inner, scheme, g, d)
}

// NewTypedProber is NewProber with join-type semantics (see the
// streaming NewTypedProber). Each Prober owns its private match bitmaps
// — the shared table itself is never written — so N concurrent typed
// probe streams over one BuildSide stay independent: a right-outer
// stream's build-row bits, for example, cannot leak into a sibling
// semi-join stream's short-circuit decisions.
func (b *BuildSide) NewTypedProber(jt plan.JoinType, scheme Scheme, g, d int) *Prober {
	cfg := Config{Scheme: scheme, G: g, D: d}.normalized()
	j := newPairJoiner()
	j.t = b.t
	j.width = b.t.Width()
	j.g, j.d = cfg.G, cfg.D
	j.joinType = jt
	if jt == plan.RightOuter {
		j.armBuildMatched(b.t.NRows())
	}
	return &Prober{j: j, scheme: scheme}
}

// NRows returns the build tuple count.
func (b *BuildSide) NRows() int { return b.t.NRows() }

// Width returns the serialized key+payload bytes per row.
func (b *BuildSide) Width() int { return b.t.Width() }

// Bytes returns the table's resident heap footprint, for cache
// accounting.
func (b *BuildSide) Bytes() int { return b.t.Bytes() }
