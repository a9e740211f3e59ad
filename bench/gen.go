package main

import (
	"math/rand"
	"sort"
)

// input is one in-process workload's generated data: the join keys of
// both relations in storage order. Everything else — the Env
// relations, the layer-replay relations, the oracle — derives from
// these two arrays, so the program under test receives only generated
// inputs and the reference never shares code with it.
type input struct {
	tuple        int
	build, probe []uint32
}

// hitKey and missKey are two bijections of a 31-bit index onto
// disjoint halves of the key space (even / odd), so a miss key can
// never equal a build key. salt varies the key set with the seed.
func hitKey(i, salt uint32) uint32  { return ((i + salt) * 2654435761) << 1 }
func missKey(i, salt uint32) uint32 { return ((i+salt)*2654435761)<<1 | 1 }

// genInput generates a workload's keys from its spec and the seed.
//
// Build side: nBuild/dupRun distinct keys, each repeated dupRun times
// (1 = unique keys). Probe side: nHit tuples dealt round-robin over
// the distinct build keys — so the output cardinality is exact and
// independent of the seed — and the remainder are guaranteed misses.
// Both sides are shuffled so storage order is uncorrelated with key
// value.
func genInput(s inprocSpec, seed int64) input {
	rng := rand.New(rand.NewSource(seed))
	salt := uint32(rng.Int31())
	in := input{tuple: s.tuple, build: make([]uint32, s.nBuild), probe: make([]uint32, 0, s.nProbe)}
	nKeys := s.nBuild / s.dupRun
	for i := range in.build {
		in.build[i] = hitKey(uint32(i/s.dupRun), salt)
	}
	// The deal order is itself shuffled, so when nHit is too small to
	// reach every key the hit set still varies with the seed.
	order := rng.Perm(nKeys)
	for j := 0; j < s.nHit; j++ {
		in.probe = append(in.probe, hitKey(uint32(order[j%nKeys]), salt))
	}
	for i := 0; len(in.probe) < s.nProbe; i++ {
		in.probe = append(in.probe, missKey(uint32(i), salt))
	}
	rng.Shuffle(len(in.build), func(i, j int) { in.build[i], in.build[j] = in.build[j], in.build[i] })
	rng.Shuffle(len(in.probe), func(i, j int) { in.probe[i], in.probe[j] = in.probe[j], in.probe[i] })
	return in
}

// buildValue is the 4-byte value stored after the key of build tuple
// i: the column WithAggregation(4, …) sums. Kept to 16 bits so the
// reference sums are easy to eyeball.
func buildValue(i int) uint32 { return (uint32(i) * 0x9E3779B1) >> 16 }

// group is one expected aggregation row.
type group struct {
	key        uint32
	count, sum uint64
}

// expect is the reference result of an inner equi-join of an input:
// the output row count, the order-independent checksum Σ build key
// over output rows, and — for aggregating workloads — the per-key
// groups sorted by key.
type expect struct {
	rows   int
	keysum uint64
	groups []group
}

// reference computes expect with a Go map join: one pass to histogram
// the build side, one pass over the probe side. It shares nothing with
// the engine — not the hash function, not the table layout.
func reference(in input, withGroups bool) expect {
	type side struct {
		n      uint64 // build tuples with this key
		valSum uint64 // Σ buildValue over them
	}
	hist := make(map[uint32]side, len(in.build))
	for i, k := range in.build {
		s := hist[k]
		s.n++
		s.valSum += uint64(buildValue(i))
		hist[k] = s
	}
	var e expect
	agg := map[uint32]group{}
	for _, k := range in.probe {
		s, ok := hist[k]
		if !ok {
			continue
		}
		e.rows += int(s.n)
		e.keysum += uint64(k) * s.n
		if withGroups {
			g := agg[k]
			g.key = k
			g.count += s.n
			g.sum += s.valSum
			agg[k] = g
		}
	}
	if withGroups {
		e.groups = make([]group, 0, len(agg))
		for _, g := range agg {
			e.groups = append(e.groups, g)
		}
		sort.Slice(e.groups, func(i, j int) bool { return e.groups[i].key < e.groups[j].key })
	}
	return e
}
