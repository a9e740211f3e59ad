package native

import "hashjoin/internal/plan"

// Prober is the streaming face of the native join: probe scratch over
// one row table holding the whole build side (partitioned pipelines use
// Joiner.JoinStream instead). A ProbeStream's workers each hand theirs
// page-range morsels of the probe relation, read in place with the hash
// codes memoized in the slots; ProbeBatch takes a batch of entries
// instead, and with batches of G, batch boundaries are prefetch-group
// boundaries — the section 5.4 shape of the simulator's core.Prober.
// Probing mutates only the Prober's own scratch, never the table, so
// any number of Probers created from one BuildSide may run concurrently.
type Prober struct {
	j      *pairJoiner
	scheme Scheme
}

// NewProber serializes build into a row table with the scheme's build
// loop (group-batched directory prefetches for Group, pipelined for
// Pipelined) and returns an inner-join Prober over it. data must be the
// arena backing slice the entries' Refs point into, and width the build
// schema's fixed tuple width. Zero G/D select the native defaults.
func NewProber(data []byte, build []Entry, width int, scheme Scheme, g, d int) *Prober {
	cfg := Config{Scheme: scheme, G: g, D: d}.normalized()
	t := &RowTable{}
	t.Reset(len(build), width, 0)
	t.BuildSerial(data, build, scheme, cfg.G, cfg.D)
	return (&BuildSide{t: t}).NewTypedProber(plan.Inner, scheme, g, d)
}

// Fork returns fresh probe scratch over the same table with the same
// semantics, for another goroutine of the same probe stream: a
// right-outer fork marks the build rows it matches in p's bitmap (the
// bits are set atomically), so one EmitUnmatchedBuild on p, after every
// fork has finished, sweeps for the whole stream.
func (p *Prober) Fork() *Prober {
	j := newPairJoiner()
	j.t = p.j.t
	j.g, j.d = p.j.g, p.j.d
	j.joinType = p.j.joinType
	j.buildMatched = p.j.buildMatched
	return &Prober{j: j, scheme: p.scheme}
}

// EmitUnmatchedBuild finishes a right-outer probe stream: it emits every
// build row no batch matched, with probeRef 0 (null probe side). Call it
// exactly once, after the last ProbeBatch; other join types no-op.
func (p *Prober) EmitUnmatchedBuild(emit func(build []byte, probeRef uint64)) {
	if p.j.joinType != plan.RightOuter {
		return
	}
	p.j.sink = emit
	p.j.sweepUnmatchedBuild()
	p.j.sink = nil
}

// G returns the group size the probe loops run with; callers that want
// batch boundaries to coincide with group boundaries feed ProbeBatch at
// most G entries per call (larger batches are strip-mined internally).
func (p *Prober) G() int { return p.j.g }

// ProbeBatch probes one batch of entries with the Prober's scheme,
// calling emit for every validated match with the build row's
// serialized key+payload bytes (valid only for the duration of the
// call) and the probe tuple address. The key comparison happens in-row;
// the build relation is never touched. Matches are delivered in probe
// order within a batch when the table was built serially.
func (p *Prober) ProbeBatch(batch []Entry, emit func(build []byte, probeRef uint64)) {
	p.probe(&probeInput{ents: batch}, emit)
}

// probe probes in with the Prober's scheme into emit.
func (p *Prober) probe(in *probeInput, emit func(build []byte, probeRef uint64)) {
	p.j.sink = emit
	p.j.probeFor(in, p.scheme)
	p.j.sink = nil
}

// NOutput returns the validated matches emitted so far.
func (p *Prober) NOutput() int { return p.j.nOutput }

// KeySum returns the running sum of matched build keys, the same
// order-independent checksum the monolithic join reports.
func (p *Prober) KeySum() uint64 { return p.j.keySum }
