package native

import (
	"encoding/binary"
	"sync/atomic"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
)

// Join-type matrix support for the native row-table join. The probe
// relation is the join's left input and the build relation its right
// one (see plan.JoinType), so:
//
//   - left outer emits unmatched probe rows with null-padded build
//     columns (the sink receives build == nil),
//   - right outer emits unmatched build rows with null-padded probe
//     columns (the sink receives probeRef == 0 — never a valid arena
//     address, which start at arena.Base),
//   - left semi emits each matched probe row once, probe columns only,
//   - left anti emits each unmatched probe row once, probe columns only.
//
// Two bitmap families make this compose with every tier of the
// degradation ladder:
//
// Build-side bits (right outer). Each probe stream owns a private
// buildMatched bitmap indexed by row-table row index; the shared table
// itself stays immutable, so one BuildSide still serves N concurrent
// probe streams, each with its own bitmap. Bits are set with an atomic
// OR, outside the rows: an in-row bit would both mutate the shared
// table and force atomic RMWs on arbitrarily aligned rows. Every build
// row lands in exactly one table (a partition pair, a spill chunk, or
// the hybrid resident prefix), so sweeping each table right after its
// last probe pass covers the build side exactly once.
//
// Probe-side bits (left outer / semi / anti). In-memory tables see the
// whole build side at once, so the chain walk decides matched/unmatched
// per probe row inline and no bitmap is needed. The out-of-core tier
// sees the build side in chunks: a probe row unmatched in one chunk may
// match a later one, so the spill path arms probeMatched — indexed by
// the probe partition's stable stream position — before the first chunk
// and resolves unmatched rows only after the last. The hybrid leaf arms
// the same bitmap before its resident prefix pass; the prefix probes
// the probe entries in the exact order they are later written to disk,
// so the bits carry across the resident/spilled seam unchanged.

// needsProbeBits reports whether the current join type defers
// unmatched-probe decisions to the probeMatched bitmap when the build
// side is only partially visible (spill chunks, hybrid prefix).
func (j *pairJoiner) needsProbeBits() bool {
	switch j.joinType {
	case plan.LeftOuter, plan.LeftSemi, plan.LeftAnti:
		return true
	}
	return false
}

// armProbeBits sizes and clears the deferred probe-side bitmap for n
// probe entries and enters deferred mode.
func (j *pairJoiner) armProbeBits(n int) {
	words := (n + 63) / 64
	if cap(j.probeMatched) < words {
		j.probeMatched = make([]uint64, words)
	} else {
		j.probeMatched = j.probeMatched[:words]
		clear(j.probeMatched)
	}
	j.probeBase = 0
	j.deferProbe = true
}

// probeBit reports the deferred bit of the probe entry st addresses.
func (j *pairJoiner) probeBit(st *probeState) bool {
	i := j.probeBase + int(st.idx)
	return j.probeMatched[i>>6]&(1<<uint(i&63)) != 0
}

// markProbeBit sets the deferred bit of the probe entry st addresses.
func (j *pairJoiner) markProbeBit(st *probeState) {
	i := j.probeBase + int(st.idx)
	j.probeMatched[i>>6] |= 1 << uint(i&63)
}

// armBuildMatched sizes and clears the build-row match bitmap for the
// n rows of the table just built. buildSerial calls it on right-outer
// joins, so every tier that builds a table gets a fresh bitmap.
func (j *pairJoiner) armBuildMatched(n int) {
	words := (n + 63) / 64
	if cap(j.buildMatched) < words {
		j.buildMatched = make([]uint64, words)
	} else {
		j.buildMatched = j.buildMatched[:words]
		clear(j.buildMatched)
	}
}

// markBuildRow atomically sets the match bit of table row i. Atomic so
// the bitmap stays correct even if one bitmap is ever shared by
// concurrent probe loops; per-Prober bitmaps make the common case
// contention-free.
func (j *pairJoiner) markBuildRow(i uint32) {
	w := &j.buildMatched[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// sweepUnmatchedBuild emits every row of the current table whose match
// bit is still clear as a right-outer row: build columns real, probe
// columns null (probeRef 0). Called once per table, after its last
// probe pass.
func (j *pairJoiner) sweepUnmatchedBuild() {
	if j.joinType != plan.RightOuter {
		return
	}
	rows := j.t.rows
	w := uint64(j.t.width)
	for i := uint32(0); i < uint32(j.t.nRows); i++ {
		if atomic.LoadUint64(&j.buildMatched[i>>6])&(1<<(i&63)) != 0 {
			continue
		}
		off := j.t.rowOff(i) + rowKeyOff
		j.nOutput++
		j.keySum += uint64(binary.LittleEndian.Uint32(rows[off:]))
		if j.sink != nil {
			j.sink(rows[off:off+w], 0)
		}
	}
}

// emitUnmatchedPair handles a partition pair with an empty side, which
// the match loops would skip entirely: an empty build side makes every
// probe row unmatched (left outer / anti output), an empty probe side
// makes every build row unmatched (right outer output).
func (j *pairJoiner) emitUnmatchedPair(build, probe []Entry) {
	if len(build) == 0 {
		j.emitAllProbeUnmatched(probe)
		return
	}
	if len(probe) == 0 && j.joinType == plan.RightOuter {
		for i := range build {
			j.emitBuildEntryUnmatched(&build[i])
		}
	}
}

// emitAllProbeUnmatched emits every probe entry as an unmatched row
// under the current join type.
func (j *pairJoiner) emitAllProbeUnmatched(probe []Entry) {
	switch j.joinType {
	case plan.LeftOuter:
		for i := range probe {
			j.emitProbeRow(probe[i].Ref, 0)
		}
	case plan.LeftAnti:
		for i := range probe {
			j.emitProbeRow(probe[i].Ref, probe[i].Key)
		}
	}
}

// emitProbeRow emits probe row ref with a null build side, adding sum to
// the key sum: 0 for a left-outer unmatched row, whose build key is
// null, and the probe key for a semi or anti row.
func (j *pairJoiner) emitProbeRow(ref uint64, sum uint32) {
	j.nOutput++
	j.keySum += uint64(sum)
	if j.sink != nil {
		j.sink(nil, ref)
	}
}

// emitBuildEntryUnmatched emits one build entry as a right-outer row
// straight from its partition entry, without building a table.
func (j *pairJoiner) emitBuildEntryUnmatched(e *Entry) {
	j.nOutput++
	j.keySum += uint64(e.Key)
	if j.sink != nil {
		base := e.Ref - arena.Base
		j.sink(j.data[base:base+uint64(j.t.width)], 0)
	}
}

// finishProbeBits resolves the deferred probe-side bitmap against the
// still-resident probe entries — the in-memory twin of the spill path's
// stream sweep, used when the hybrid leaf never reached disk — and
// leaves deferred mode.
func (j *pairJoiner) finishProbeBits(probe []Entry) {
	defer func() { j.deferProbe = false }()
	if j.joinType == plan.LeftSemi {
		return // semi rows were emitted on their first match
	}
	for i := range probe {
		if j.probeMatched[i>>6]&(1<<uint(i&63)) != 0 {
			continue
		}
		sum := probe[i].Key // left anti
		if j.joinType == plan.LeftOuter {
			sum = 0
		}
		j.emitProbeRow(probe[i].Ref, sum)
	}
}
