// Package workload generates the synthetic relations of the paper's
// evaluation (section 7.1): build and probe relations sharing a schema
// of a 4-byte join key plus a fixed-length payload, with controllable
// tuple size, matches per build tuple, percentage of matched tuples, and
// key skew. Keys are generated deterministically from a seed so every
// experiment is reproducible.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
)

// Spec describes a join workload. The paper's pivot configuration is
// 100-byte tuples with every build tuple matching two probe tuples.
type Spec struct {
	NBuild    int // number of build tuples
	NProbe    int // number of probe tuples; 0 derives MatchesPerBuild*NBuild
	TupleSize int // bytes per tuple (both relations), >= 8

	// MatchesPerBuild is the number of probe tuples matching each
	// *matched* build tuple (Figure 10b varies this 1..4).
	MatchesPerBuild int

	// PctMatched is the percentage (0..100) of build tuples that have
	// matches (Figure 10c varies this 50..100). Probe tuples beyond the
	// matched ones get keys that match nothing.
	PctMatched int

	// MatchRate, when > 0, fixes the fraction of *probe* tuples that
	// have at least one build match — the probe-side selectivity knob
	// the strategy planner and the semi/anti/outer parity tests sweep.
	// Exactly round(MatchRate*NProbe) probe tuples get keys cycled over
	// the matched build keys; the rest get guaranteed-miss keys.
	// Overrides the MatchesPerBuild-driven probe composition (PctMatched
	// still controls which build tuples are matchable); ignored in Zipf
	// mode, where selectivity follows the rank distribution.
	MatchRate float64

	// Skew, when > 1, repeats some build keys so bucket chains grow,
	// stressing the read-write conflict handling. 1 (or 0) means unique
	// build keys as in the paper's main experiments.
	Skew int

	// ZipfS, when > 0, switches the build relation to Zipf-distributed
	// keys: ranks over a universe of ZipfKeys distinct keys are drawn
	// with probability proportional to 1/rank^ZipfS, so partition
	// footprints follow the hot ranks — the boundary workload for
	// hybrid-join victim selection. Unlike math/rand's Zipf (which
	// requires s > 1), inverse-CDF sampling over the precomputed rank
	// weights supports the whole s > 0 range the skew literature sweeps
	// (0.5 .. 1.5). Probe keys are drawn uniformly over the same
	// universe, keeping the output cardinality linear instead of
	// squaring the hot-rank mass; a rank the build side never drew is a
	// natural miss. MatchesPerBuild, PctMatched, and Skew are ignored in
	// Zipf mode; NProbe defaults to 2*NBuild.
	ZipfS float64
	// ZipfKeys is the distinct-key universe for ZipfS; 0 defaults 256.
	ZipfKeys int

	PageSize int // slotted page size; 0 defaults to 8 KB

	Seed int64
}

// Pivot returns the paper's pivot workload scaled to nBuild build tuples:
// 100-byte tuples, 2 matches per build tuple, 100% matched.
func Pivot(nBuild int, seed int64) Spec {
	return Spec{
		NBuild:          nBuild,
		TupleSize:       100,
		MatchesPerBuild: 2,
		PctMatched:      100,
		Seed:            seed,
	}
}

// normalize fills defaults and validates.
func (s Spec) normalize() Spec {
	if s.PageSize == 0 {
		s.PageSize = 8 << 10
	}
	if s.MatchesPerBuild <= 0 {
		s.MatchesPerBuild = 1
	}
	if s.PctMatched <= 0 {
		s.PctMatched = 100
	}
	if s.PctMatched > 100 {
		s.PctMatched = 100
	}
	if s.Skew < 1 {
		s.Skew = 1
	}
	if s.MatchRate < 0 {
		s.MatchRate = 0
	}
	if s.MatchRate > 1 {
		s.MatchRate = 1
	}
	if s.ZipfS > 0 && s.ZipfKeys <= 0 {
		s.ZipfKeys = 256
	}
	if s.NProbe == 0 {
		if s.ZipfS > 0 {
			s.NProbe = 2 * s.NBuild
		} else {
			s.NProbe = s.NBuild * s.MatchesPerBuild
		}
	}
	if s.TupleSize < 8 {
		panic(fmt.Sprintf("workload: tuple size %d too small", s.TupleSize))
	}
	return s
}

// Pair is a generated build/probe relation pair plus ground truth about
// the expected join result.
type Pair struct {
	Spec  Spec
	Build *storage.Relation
	Probe *storage.Relation

	// ExpectedMatches is the exact number of output tuples an equijoin
	// must produce.
	ExpectedMatches int

	// KeySum is the sum (mod 2^64) over all expected output tuples of
	// the build key, a cheap order-independent result checksum.
	KeySum uint64

	// Per-join-type ground truth, all exact (see Expected):
	// ProbeMatched counts probe tuples with at least one build match;
	// MatchedProbeKeySum and UnmatchedProbeKeySum split the probe-side
	// key sum by that predicate. UnmatchedBuildRows counts build tuples
	// no probe tuple matches, with their key sum in
	// UnmatchedBuildKeySum.
	ProbeMatched         int
	MatchedProbeKeySum   uint64
	UnmatchedProbeKeySum uint64
	UnmatchedBuildRows   int
	UnmatchedBuildKeySum uint64
}

// Expected returns the exact output cardinality and key checksum of the
// pair under join type jt, following the kernels' checksum convention:
// inner/outer outputs sum the build key (0 for a null-padded build
// side, the real key for a null-padded probe side), semi/anti outputs
// sum the probe key — equal to the build key on a match by definition
// of the equi-join.
func (p *Pair) Expected(jt plan.JoinType) (n int, keySum uint64) {
	switch jt {
	case plan.LeftOuter:
		return p.ExpectedMatches + p.Spec.NProbe - p.ProbeMatched, p.KeySum
	case plan.RightOuter:
		return p.ExpectedMatches + p.UnmatchedBuildRows, p.KeySum + p.UnmatchedBuildKeySum
	case plan.LeftSemi:
		return p.ProbeMatched, p.MatchedProbeKeySum
	case plan.LeftAnti:
		return p.Spec.NProbe - p.ProbeMatched, p.UnmatchedProbeKeySum
	}
	return p.ExpectedMatches, p.KeySum
}

// JoinRows bounds the output rows of a jt join of the pair Generate
// makes from s, without making it: a probe row that hits meets at most
// Skew build rows, those of its key. Under ZipfS the count is random,
// and the inner term is twice its expectation — a uniform probe row
// meets NBuild/ZipfKeys build rows on average — as ArenaBytesFor
// assumes, not a bound.
func (s Spec) JoinRows(jt plan.JoinType) int {
	s = s.normalize()
	var hits, misses, inner int
	if s.ZipfS > 0 {
		hits, misses, inner = s.NProbe, s.NProbe, 2*s.NProbe*s.NBuild/s.ZipfKeys
	} else {
		nMatched := s.NBuild * s.PctMatched / 100
		hits = min(nMatched*s.MatchesPerBuild, s.NProbe)
		if s.MatchRate > 0 {
			hits = 0
			if nMatched > 0 {
				hits = int(math.Round(s.MatchRate * float64(s.NProbe)))
			}
		}
		misses, inner = s.NProbe-hits, hits*s.Skew
	}
	switch jt {
	case plan.LeftOuter:
		return inner + misses
	case plan.RightOuter:
		return inner + s.NBuild
	case plan.LeftSemi:
		return hits
	case plan.LeftAnti:
		return misses
	}
	return inner
}

// buildKey derives the i-th build key: a bijection of i over 31 bits,
// shifted to even so probe-only keys (odd) never collide with it.
func buildKey(i uint32) uint32 { return (i * 2654435761) << 1 }

// missKey derives a key guaranteed to match no build tuple.
func missKey(i uint32) uint32 { return (i*2654435761)<<1 | 1 }

// Generate materializes the relations into a. The arena must be large
// enough for both relations (roughly (NBuild+NProbe) * (TupleSize +
// slot) * 1.1 bytes).
func Generate(a *arena.Arena, spec Spec) *Pair {
	spec = spec.normalize()
	rng := rand.New(rand.NewSource(spec.Seed))
	schema := storage.KeyPayloadSchema(spec.TupleSize)

	if spec.ZipfS > 0 {
		return generateZipf(a, spec, rng, schema)
	}

	nMatched := spec.NBuild * spec.PctMatched / 100

	// Build relation: keys are a deterministic bijection of the index,
	// possibly with skew (repeated keys). Appended in shuffled order so
	// hash-table insertion order is not correlated with key value.
	build := storage.NewRelation(a, schema, spec.PageSize)
	order := rng.Perm(spec.NBuild)
	tup := make([]byte, spec.TupleSize)
	for _, idx := range order {
		k := buildKey(uint32(idx / spec.Skew))
		fillTuple(tup, k, uint32(idx))
		build.Append(tup, hash.CodeU32(k))
	}

	// Probe relation: the first nMatched build indexes receive
	// MatchesPerBuild probe tuples each; the rest of the probe relation
	// gets guaranteed-miss keys. Shuffled for the same reason.
	probe := storage.NewRelation(a, schema, spec.PageSize)
	probeKeys := make([]uint32, 0, spec.NProbe)
	if spec.MatchRate > 0 {
		// Probe-side selectivity mode: exactly round(MatchRate*NProbe)
		// hits, cycled over the matched build keys so the hit mass
		// spreads evenly instead of saturating the first build tuples.
		nHit := int(math.Round(spec.MatchRate * float64(spec.NProbe)))
		if nMatched == 0 {
			nHit = 0
		}
		for i := 0; i < nHit; i++ {
			probeKeys = append(probeKeys, buildKey(uint32((i%nMatched)/spec.Skew)))
		}
	} else {
		for i := 0; i < nMatched; i++ {
			for j := 0; j < spec.MatchesPerBuild && len(probeKeys) < spec.NProbe; j++ {
				probeKeys = append(probeKeys, buildKey(uint32(i/spec.Skew)))
			}
		}
	}
	for i := 0; len(probeKeys) < spec.NProbe; i++ {
		probeKeys = append(probeKeys, missKey(uint32(i)))
	}
	rng.Shuffle(len(probeKeys), func(i, j int) {
		probeKeys[i], probeKeys[j] = probeKeys[j], probeKeys[i]
	})
	for i, k := range probeKeys {
		fillTuple(tup, k, uint32(i)|0x80000000)
		probe.Append(tup, hash.CodeU32(k))
	}

	// Ground truth. With skew, several build tuples share a key, so each
	// matching probe tuple joins with all of them.
	p := &Pair{Spec: spec, Build: build, Probe: probe}
	buildCount := make(map[uint32]int, spec.NBuild)
	for i := 0; i < spec.NBuild; i++ {
		buildCount[buildKey(uint32(i/spec.Skew))]++
	}
	p.account(buildCount, probeKeys)
	return p
}

// account fills in the inner ground truth and the per-join-type
// counters from the build-key histogram and the probe key list.
func (p *Pair) account(buildCount map[uint32]int, probeKeys []uint32) {
	probeSeen := make(map[uint32]bool, len(probeKeys))
	for _, k := range probeKeys {
		if c := buildCount[k]; c > 0 {
			p.ExpectedMatches += c
			p.KeySum += uint64(k) * uint64(c)
			p.ProbeMatched++
			p.MatchedProbeKeySum += uint64(k)
			probeSeen[k] = true
		} else {
			p.UnmatchedProbeKeySum += uint64(k)
		}
	}
	for k, c := range buildCount {
		if !probeSeen[k] {
			p.UnmatchedBuildRows += c
			p.UnmatchedBuildKeySum += uint64(k) * uint64(c)
		}
	}
}

// zipfSampler draws key ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s by inverse-CDF lookup over the precomputed cumulative
// weights. math/rand's Zipf only supports s > 1; the binary search
// costs O(log n) per draw and handles any s > 0.
type zipfSampler struct {
	cum []float64 // cum[r] = sum of weights of ranks 0..r
}

func newZipfSampler(n int, s float64) *zipfSampler {
	z := &zipfSampler{cum: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		z.cum[r] = total
	}
	return z
}

func (z *zipfSampler) rank(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// generateZipf materializes a Zipf-skewed pair: the build side draws
// key ranks from the 1/rank^s distribution over ZipfKeys distinct keys,
// the probe side uniformly over the same universe. Ground truth is
// exact via the build-side key histogram, as in the uniform generator.
func generateZipf(a *arena.Arena, spec Spec, rng *rand.Rand, schema *storage.Schema) *Pair {
	z := newZipfSampler(spec.ZipfKeys, spec.ZipfS)

	build := storage.NewRelation(a, schema, spec.PageSize)
	buildCount := make(map[uint32]int, spec.ZipfKeys)
	tup := make([]byte, spec.TupleSize)
	for i := 0; i < spec.NBuild; i++ {
		k := buildKey(uint32(z.rank(rng)))
		buildCount[k]++
		fillTuple(tup, k, uint32(i))
		build.Append(tup, hash.CodeU32(k))
	}

	probe := storage.NewRelation(a, schema, spec.PageSize)
	p := &Pair{Spec: spec, Build: build, Probe: probe}
	probeKeys := make([]uint32, 0, spec.NProbe)
	for i := 0; i < spec.NProbe; i++ {
		k := buildKey(uint32(rng.Intn(spec.ZipfKeys)))
		fillTuple(tup, k, uint32(i)|0x80000000)
		probe.Append(tup, hash.CodeU32(k))
		probeKeys = append(probeKeys, k)
	}
	p.account(buildCount, probeKeys)
	return p
}

// fillTuple encodes key at offset 0 and a payload derived from (key,
// salt) after it, so payload corruption is detectable.
func fillTuple(dst []byte, key, salt uint32) {
	binary.LittleEndian.PutUint32(dst, key)
	v := key ^ salt ^ 0x9E3779B9
	for i := 4; i < len(dst); i++ {
		dst[i] = byte(v >> (8 * (uint(i) % 4)))
	}
}

// ArenaBytesFor estimates the arena capacity needed to hold the
// workload's relations plus hash table, partitions, and output, with
// slack for page and allocator overhead.
func ArenaBytesFor(spec Spec) uint64 {
	spec = spec.normalize()
	tuples := uint64(spec.NBuild + spec.NProbe)
	perTuple := uint64(spec.TupleSize + storage.SlotSize)
	raw := tuples * perTuple
	// relations + partitions copy + hash table/cells + output tuples
	// (build+probe width) + page slack.
	nOut := uint64(spec.NBuild * spec.MatchesPerBuild)
	if spec.ZipfS > 0 {
		// Uniform probe over ZipfKeys ranks: ~NProbe*NBuild/ZipfKeys
		// matches in expectation; double it for headroom.
		nOut = 2 * uint64(spec.NProbe) * uint64(spec.NBuild) / uint64(spec.ZipfKeys)
	}
	out := nOut * uint64(2*spec.TupleSize+storage.SlotSize)
	need := raw*3 + out*2 + uint64(spec.NBuild)*uint64(hash.HeaderSize+hash.CellSize)*2 + (64 << 10)
	// Floor generous enough for small-workload tests that also allocate
	// partition buffers and intermediate pages.
	if need < 4<<20 {
		need = 4 << 20
	}
	return need
}
