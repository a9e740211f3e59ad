package native

import (
	"context"
	"sync/atomic"

	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// streamMorselTuples is the probe tuples a page-range morsel of the
// streaming join aims for. The probe reads a morsel's pages once, in
// order, straight from the arena — 8192 tuples of 100 bytes span about
// 110 8 KiB pages — so the size need only amortize a claim and its
// cancellation check, while a relation worth parallelising still cuts
// into many more morsels than workers.
const streamMorselTuples = 8192

// ProbeStream is the morsel-parallel face of the streaming join: the
// probe relation's pages are cut into page-range morsels that any
// number of workers claim from one cursor, each probing its morsel's
// pages in place against the one shared, immutable BuildSide with a
// Prober of its own. Which rows a worker emits depends on claim order,
// so the stream's output is a multiset; within a morsel it is in probe
// order.
type ProbeStream struct {
	ctx      context.Context
	rel      *storage.Relation
	perPages int // pages per morsel
	morsels  int
	cursor   atomic.Int64 // next unclaimed morsel
	done     atomic.Int64 // morsels fully probed, for the cancel report
	root     *Prober      // every worker's prober is a fork of it: one right-outer bitmap
}

// NewProbeStream cuts probe into morsels for a join of type jt against
// b. ctx is checked at every morsel claim and as the probe begins each
// page of a morsel.
func (b *BuildSide) NewProbeStream(ctx context.Context, probe *storage.Relation, jt plan.JoinType, scheme Scheme, g, d int) *ProbeStream {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &ProbeStream{ctx: ctx, rel: probe, perPages: 1, root: b.NewTypedProber(jt, scheme, g, d)}
	if np := probe.NPages(); np > 0 {
		perPage := max(1, probe.NTuples/np)
		s.perPages = max(1, streamMorselTuples/perPage)
		s.morsels = (np + s.perPages - 1) / s.perPages
	}
	return s
}

// Morsels returns how many morsels the probe relation was cut into.
func (s *ProbeStream) Morsels() int { return s.morsels }

// NewWorker returns one worker of the stream; each is single-goroutine.
func (s *ProbeStream) NewWorker() *StreamWorker {
	return &StreamWorker{s: s, p: s.root.Fork()}
}

// EmitUnmatchedBuild finishes a right-outer stream: every build row no
// worker matched, with probeRef 0. Call it once, after every worker has
// returned; other join types no-op.
func (s *ProbeStream) EmitUnmatchedBuild(emit func(build []byte, probeRef uint64)) {
	s.root.EmitUnmatchedBuild(emit)
}

// StreamWorker is one goroutine's share of a ProbeStream: its prober.
type StreamWorker struct {
	s *ProbeStream
	p *Prober
}

// ProbeMorsel claims one morsel and probes its pages in place. It is
// the unit a pool schedules: a call that finds the cursor exhausted
// returns at once. The claim passes the morsel-worker gate first:
// cancellation, then the worker failpoint.
func (w *StreamWorker) ProbeMorsel(emit func(build []byte, probeRef uint64)) error {
	s := w.s
	if err := claimCheck(s.ctx); err != nil {
		return s.cancelled(err)
	}
	m := int(s.cursor.Add(1)) - 1
	if m >= s.morsels {
		return nil
	}
	lo := m * s.perPages
	in := probeInput{data: s.rel.Arena().Data(), pages: s.rel.Pages[lo:min(lo+s.perPages, s.rel.NPages())],
		pageSize: uint64(s.rel.PageSize), ctx: s.ctx}
	w.p.probe(&in, emit)
	if in.err != nil {
		return s.cancelled(in.err)
	}
	s.done.Add(1)
	return nil
}

// cancelled types a context stop with the stream's progress in morsels.
func (s *ProbeStream) cancelled(err error) error {
	return asCancel(err, int(s.done.Load()), s.morsels, 0)
}
