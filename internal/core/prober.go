package core

import (
	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/storage"
	"hashjoin/internal/vmem"
)

// Prober is the incremental, pipeline-friendly face of the group-
// prefetched join phase. Section 5.4 of the paper observes that group
// prefetching's natural group boundary lets the join "pause ... and send
// outputs to the parent operator to support pipelined query processing";
// a Prober does exactly that: the hash table is built once (group-
// prefetched), then the parent feeds probe tuples in batches of G and
// receives matches through a callback at each group boundary.
type Prober struct {
	m      *vmem.Mem
	table  hash.Table
	params Params

	buildLen int
	states   []probeState
}

// ProbeTuple identifies one probe tuple for a batch: its address,
// length, and memoized hash code.
type ProbeTuple struct {
	Addr arena.Addr
	Len  int
	Code uint32
}

// NewProber builds the hash table over build with group prefetching and
// returns a Prober whose batch size is params.G.
func NewProber(m *vmem.Mem, build *storage.Relation, params Params) *Prober {
	if build.Schema.HasVar() {
		panic("core: prober requires fixed-width build schemas")
	}
	params = params.normalized()
	p := &Prober{
		m:        m,
		params:   params,
		buildLen: build.Schema.FixedWidth(),
		states:   make([]probeState, params.G),
	}
	for i := range p.states {
		p.states[i].matches = make([]arena.Addr, 0, 4)
	}
	j := &joiner{
		m:      m,
		build:  build,
		table:  hash.NewTable(m.A, hash.SizeFor(build.NTuples, 1)),
		scheme: SchemeGroup,
		params: params,
	}
	j.buildGroup()
	p.table = j.table
	return p
}

// ProbeScratchBytes bounds the arena bytes NewProber allocates for a
// build relation of buildRows tuples: its chained table.
func ProbeScratchBytes(buildRows int) uint64 {
	return tableBytes(hash.SizeFor(buildRows, 1), buildRows)
}

// BatchSize returns the group size G: callers feed at most this many
// tuples per ProbeBatch call for full latency hiding.
func (p *Prober) BatchSize() int { return p.params.G }

// BuildLen returns the fixed width of build tuples.
func (p *Prober) BuildLen() int { return p.buildLen }

// ProbeBatch runs one group-prefetched probe pass over tuples (at most
// BatchSize of them), invoking emit for every key match. Emit runs at
// the group boundary, so the parent operator's work overlaps nothing.
func (p *Prober) ProbeBatch(tuples []ProbeTuple, emit func(build arena.Addr, buildLen int, probe ProbeTuple)) {
	if len(tuples) > len(p.states) {
		panic("core: probe batch exceeds group size")
	}
	m := p.m
	a := m.A
	n := len(tuples)

	// Stage 0: bucket numbers and header prefetches.
	for i := 0; i < n; i++ {
		st := &p.states[i]
		m.Compute(CostLoop + CostStateGroup + CostMod)
		st.tuple = tuples[i].Addr
		st.length = tuples[i].Len
		st.code = tuples[i].Code
		st.header = p.table.HeaderAddr(hash.BucketOf(st.code, p.table.NBuckets))
		st.active = true
		st.matches = st.matches[:0]
		m.Prefetch(st.header)
	}

	// Stage 1: visit headers; prefetch cell arrays and inline matches.
	for i := 0; i < n; i++ {
		st := &p.states[i]
		m.Compute(CostStateGroup)
		m.S.Read(st.header, 16)
		m.Compute(CostVisitHeader)
		st.count = a.U32(st.header + hash.HOffCount)
		st.cells = 0
		if st.count == 0 {
			st.active = false
			continue
		}
		if a.U32(st.header+hash.HOffCode0) == st.code {
			bt := a.U64(st.header + hash.HOffTuple0)
			st.matches = append(st.matches, bt)
			m.PrefetchRange(bt, p.buildLen)
		}
		if st.count > 1 {
			m.S.Read(st.header+hash.HOffCells, 8)
			st.cells = a.U64(st.header + hash.HOffCells)
			m.PrefetchRange(st.cells, int(st.count-1)*hash.CellSize)
		}
	}

	// Stage 2: scan cell arrays; prefetch matching build tuples.
	for i := 0; i < n; i++ {
		st := &p.states[i]
		if !st.active || st.cells == 0 {
			continue
		}
		m.Compute(CostStateGroup)
		m.S.Read(st.cells, int(st.count-1)*hash.CellSize)
		for k := 0; k < int(st.count-1); k++ {
			c := hash.CellAddr(st.cells, k)
			m.Compute(CostVisitCell)
			if a.U32(c+hash.CellOffCode) == st.code {
				bt := a.U64(c + hash.CellOffTuple)
				st.matches = append(st.matches, bt)
				m.PrefetchRange(bt, p.buildLen)
			}
		}
	}

	// Stage 3 / group boundary: compare keys, hand matches to the
	// parent.
	for i := 0; i < n; i++ {
		st := &p.states[i]
		if !st.active {
			continue
		}
		m.Compute(CostStateGroup)
		for _, bt := range st.matches {
			m.S.Read(bt, 4)
			m.S.Read(st.tuple, 4)
			m.Compute(CostCompare)
			if a.U32(bt) == a.U32(st.tuple) {
				emit(bt, p.buildLen, ProbeTuple{Addr: st.tuple, Len: st.length, Code: st.code})
			}
		}
	}
}
