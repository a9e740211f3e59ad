package workload

import (
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/plan"
)

func gen(t *testing.T, spec Spec) *Pair {
	t.Helper()
	a := arena.New(ArenaBytesFor(spec))
	return Generate(a, spec)
}

func TestPivotCounts(t *testing.T) {
	p := gen(t, Pivot(1000, 1))
	if p.Build.NTuples != 1000 {
		t.Fatalf("build tuples = %d", p.Build.NTuples)
	}
	if p.Probe.NTuples != 2000 {
		t.Fatalf("probe tuples = %d", p.Probe.NTuples)
	}
	if p.ExpectedMatches != 2000 {
		t.Fatalf("expected matches = %d, want 2000", p.ExpectedMatches)
	}
}

func TestPctMatched(t *testing.T) {
	spec := Pivot(1000, 2)
	spec.PctMatched = 50
	p := gen(t, spec)
	// 500 matched build tuples x 2 probes each; probe relation still
	// 2000 tuples, the rest guaranteed misses.
	if p.ExpectedMatches != 1000 {
		t.Fatalf("expected matches = %d, want 1000", p.ExpectedMatches)
	}
	if p.Probe.NTuples != 2000 {
		t.Fatalf("probe tuples = %d, want 2000", p.Probe.NTuples)
	}
}

func TestMatchesPerBuild(t *testing.T) {
	spec := Pivot(500, 3)
	spec.MatchesPerBuild = 4
	p := gen(t, spec)
	if p.Probe.NTuples != 2000 || p.ExpectedMatches != 2000 {
		t.Fatalf("probe=%d matches=%d, want 2000/2000", p.Probe.NTuples, p.ExpectedMatches)
	}
}

func TestGroundTruthAgainstNaiveJoin(t *testing.T) {
	spec := Spec{NBuild: 300, TupleSize: 20, MatchesPerBuild: 2, PctMatched: 70, Seed: 3}
	p := gen(t, spec)
	counts := make(map[uint32]int)
	for _, k := range p.Build.Keys() {
		counts[k]++
	}
	matches := 0
	var keySum uint64
	for _, k := range p.Probe.Keys() {
		if c := counts[k]; c > 0 {
			matches += c
			keySum += uint64(k) * uint64(c)
		}
	}
	if matches != p.ExpectedMatches || keySum != p.KeySum {
		t.Fatalf("naive join found %d/%d, ground truth says %d/%d", matches, keySum, p.ExpectedMatches, p.KeySum)
	}
}

func TestSkewRepeatsKeys(t *testing.T) {
	spec := Pivot(100, 4)
	spec.Skew = 10
	p := gen(t, spec)
	distinct := make(map[uint32]bool)
	for _, k := range p.Build.Keys() {
		distinct[k] = true
	}
	if len(distinct) != 10 {
		t.Fatalf("distinct build keys = %d, want 10", len(distinct))
	}
	// Every probe tuple joins all 10 build copies of its key: 100 build
	// indexes x 2 probes each x 10 copies.
	if p.ExpectedMatches != 2000 {
		t.Fatalf("expected matches = %d, want 2000", p.ExpectedMatches)
	}
}

func TestDeterminism(t *testing.T) {
	p1 := gen(t, Pivot(200, 42))
	p2 := gen(t, Pivot(200, 42))
	k1, k2 := p1.Probe.Keys(), p2.Probe.Keys()
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("same seed produced different workloads at %d", i)
		}
	}
	p3 := gen(t, Pivot(200, 43))
	k3 := p3.Probe.Keys()
	same := true
	for i := range k1 {
		if k1[i] != k3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical probe orders")
	}
}

func TestBuildKeysDistinctWithoutSkew(t *testing.T) {
	p := gen(t, Pivot(5000, 5))
	seen := make(map[uint32]bool, 5000)
	for _, k := range p.Build.Keys() {
		if seen[k] {
			t.Fatalf("duplicate build key %#x without skew", k)
		}
		seen[k] = true
	}
}

func TestMissKeysNeverMatch(t *testing.T) {
	// Build keys are even, miss keys odd: verify disjointness directly.
	for i := uint32(0); i < 1000; i++ {
		if buildKey(i)&1 != 0 {
			t.Fatalf("build key %d odd", i)
		}
		if missKey(i)&1 != 1 {
			t.Fatalf("miss key %d even", i)
		}
	}
}

// TestJoinRowsBoundsOutput checks the pre-generation output bound
// against the generated pair's exact counts for every join type: never
// below them, and equal for the uniform generator's inner and semi
// joins when the skew divides the build side.
func TestJoinRowsBoundsOutput(t *testing.T) {
	for _, spec := range []Spec{
		{NBuild: 300, TupleSize: 16, MatchesPerBuild: 8, Skew: 4, Seed: 1},
		{NBuild: 400, TupleSize: 16, MatchesPerBuild: 2, PctMatched: 60, Seed: 2},
		{NBuild: 400, NProbe: 900, TupleSize: 16, MatchRate: 0.55, PctMatched: 70, Skew: 2, Seed: 3},
		{NBuild: 400, NProbe: 100, TupleSize: 16, MatchesPerBuild: 3, Seed: 4},
		{NBuild: 2000, TupleSize: 16, ZipfS: 1.0, ZipfKeys: 64, Seed: 5},
	} {
		p := gen(t, spec)
		for _, jt := range plan.JoinTypes() {
			got, _ := p.Expected(jt)
			bound := spec.JoinRows(jt)
			if got > bound {
				t.Errorf("%+v %v: %d output rows, above the bound %d", spec, jt, got, bound)
			}
			if spec.ZipfS == 0 && (jt == plan.Inner || jt == plan.LeftSemi) && got != bound {
				t.Errorf("%+v %v: %d output rows, bound %d; want them equal", spec, jt, got, bound)
			}
		}
	}
}
