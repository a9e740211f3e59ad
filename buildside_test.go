package hashjoin

// The cached build-side contract: PrepareBuildSide's concurrently
// built table, probed through WithBuildSide, produces exactly the
// results a per-query build produces — including with 8 concurrent
// tenants sharing one handle on a service Env, under -race — and the
// option's preconditions fail loudly instead of probing garbage.

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hashjoin/internal/fault"
)

func TestBuildSideReuseParity(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20))
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 4000, 8000, 40, 7)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}

	ref, err := env.RunPipeline(w.Build, w.Probe, WithEngine(EngineNative))
	if err != nil {
		t.Fatalf("per-query build run: %v", err)
	}
	if ref.NOutput != w.ExpectedMatches || ref.KeySum != w.KeySum {
		t.Fatalf("reference run = (%d, %d), want (%d, %d)", ref.NOutput, ref.KeySum, w.ExpectedMatches, w.KeySum)
	}

	b, err := env.PrepareBuildSide(ctx, w.Build, WithPipelineWorkers(4))
	if err != nil {
		t.Fatalf("PrepareBuildSide: %v", err)
	}
	if b.Rows() != w.Build.Len() || b.Bytes() == 0 {
		t.Fatalf("handle reports %d rows / %d bytes for a %d-tuple build", b.Rows(), b.Bytes(), w.Build.Len())
	}

	// Every scheme probes the one shared table; aggregation composes.
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		got, err := env.RunPipeline(w.Build, w.Probe,
			WithEngine(EngineNative), WithBuildSide(b), WithPipelineScheme(scheme))
		if err != nil {
			t.Fatalf("%v cached run: %v", scheme, err)
		}
		if got.NOutput != ref.NOutput || got.KeySum != ref.KeySum {
			t.Fatalf("%v cached run = (%d, %d), want (%d, %d)", scheme, got.NOutput, got.KeySum, ref.NOutput, ref.KeySum)
		}
	}
	agg, err := env.RunPipeline(w.Build, w.Probe,
		WithEngine(EngineNative), WithBuildSide(b), WithAggregation(4, 8192))
	if err != nil {
		t.Fatalf("cached aggregation run: %v", err)
	}
	if agg.NOutput != ref.NOutput || agg.KeySum != ref.KeySum || len(agg.Groups) == 0 {
		t.Fatalf("cached aggregation = (%d, %d, %d groups), want (%d, %d)",
			agg.NOutput, agg.KeySum, len(agg.Groups), ref.NOutput, ref.KeySum)
	}
}

// TestBuildSideConcurrentTenants is the satellite-3 service proof: one
// cached BuildSide probed by 8 concurrent tenants on a service Env
// matches the serialized runs exactly, across repeat rounds and a
// quiescent reclamation between them (the heap-resident table must
// survive arena truncation).
func TestBuildSideConcurrentTenants(t *testing.T) {
	base := fault.Goroutines()
	env := NewEnv(WithSmallHierarchy(), WithCapacity(128<<20),
		WithService(ServiceConfig{MaxConcurrent: 4, Workers: 4}))
	defer env.Close()
	ctx := context.Background()

	w, err := env.GenerateWorkload(ctx, 5000, 10000, 40, 11)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	b, err := env.PrepareBuildSide(ctx, w.Build, WithTenant("prep"), WithPipelineWorkers(4))
	if err != nil {
		t.Fatalf("PrepareBuildSide: %v", err)
	}

	const tenants = 8
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		results := make([]PipelineResult, tenants)
		errs := make([]error, tenants)
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				scheme := []Scheme{Baseline, Group, Pipelined}[i%3]
				results[i], errs[i] = env.RunPipelineContext(ctx, w.Build, w.Probe,
					WithEngine(EngineNative), WithBuildSide(b),
					WithPipelineScheme(scheme), WithTenantWeight(1+i%3),
					WithTenant("tenant"))
			}(i)
		}
		wg.Wait()
		for i := 0; i < tenants; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d tenant %d: %v", round, i, errs[i])
			}
			if results[i].NOutput != w.ExpectedMatches || results[i].KeySum != w.KeySum {
				t.Fatalf("round %d tenant %d: (%d, %d), want (%d, %d)",
					round, i, results[i].NOutput, results[i].KeySum, w.ExpectedMatches, w.KeySum)
			}
		}
	}
	if s := env.ServiceStats(); s.Reclaims == 0 {
		t.Error("no quiescent reclamation between rounds; the survival claim went untested")
	}

	env.Close()
	fault.CheckGoroutines(t, base)
}

func TestBuildSideValidation(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20))
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 200, 400, 24, 3)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	b, err := env.PrepareBuildSide(ctx, w.Build)
	if err != nil {
		t.Fatalf("PrepareBuildSide: %v", err)
	}

	cases := []struct {
		name string
		opts []PipelineOption
		want string
	}{
		{"sim-engine", []PipelineOption{WithEngine(EngineSim), WithBuildSide(b)}, "native engine"},
		{"filter", []PipelineOption{WithEngine(EngineNative), WithBuildSide(b), WithBuildFilter(1, 2)}, "WithBuildFilter"},
		{"fanout", []PipelineOption{WithEngine(EngineNative), WithBuildSide(b), WithPipelineFanout(4)}, "fanout"},
	}
	for _, tc := range cases {
		_, err := env.RunPipeline(w.Build, w.Probe, tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Wrong relation: the handle snapshots one build side only.
	if _, err := env.RunPipeline(w.Probe, w.Build, WithEngine(EngineNative), WithBuildSide(b)); err == nil ||
		!strings.Contains(err.Error(), "different relation") {
		t.Errorf("wrong-relation err = %v", err)
	}

	// PrepareBuildSide itself rejects the sim engine.
	if _, err := env.PrepareBuildSide(ctx, w.Build, WithEngine(EngineSim)); err == nil {
		t.Error("PrepareBuildSide accepted the sim engine")
	}
}

// TestBuildSideSurvivesRecycling: a query's own table is handed back for
// the next build to overwrite; a prepared side never is. After one query
// over the handle, fifty queries that build and recycle tables of its
// exact shape leave it intact — it still answers as it did.
func TestBuildSideSurvivesRecycling(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20))
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 4000, 6000, 40, 9)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	b, err := env.PrepareBuildSide(ctx, w.Build, WithPipelineWorkers(2))
	if err != nil {
		t.Fatalf("PrepareBuildSide: %v", err)
	}
	for i := 0; i <= 51; i++ {
		opts := []PipelineOption{WithEngine(EngineNative), WithPipelineWorkers(2), WithJoinType(RightOuter)}
		if i == 0 || i == 51 {
			opts = append(opts, WithBuildSide(b))
		}
		got, err := env.RunPipeline(w.Build, w.Probe, opts...)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.NOutput != w.ExpectedMatches || got.KeySum != w.KeySum {
			t.Fatalf("query %d (cached=%v) = (%d, %d), want (%d, %d)",
				i, len(opts) == 4, got.NOutput, got.KeySum, w.ExpectedMatches, w.KeySum)
		}
	}
}

// TestRecycledTableAllocation: a streaming query repeated builds into
// the table its predecessor handed back, so it allocates neither the row
// slab nor the directory again — where every query used
// to allocate (and zero) a table of the build side's size, 3.5 MiB here.
func TestRecycledTableAllocation(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20))
	w, err := env.GenerateWorkload(context.Background(), 30_000, 3000, 100, 5)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	query := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := env.RunPipeline(w.Build, w.Probe, WithEngine(EngineNative), WithPipelineWorkers(2))
		runtime.ReadMemStats(&after)
		if err != nil || got.NOutput != w.ExpectedMatches || got.KeySum != w.KeySum {
			t.Fatalf("query = (%d, %d, %v), want (%d, %d)", got.NOutput, got.KeySum, err, w.ExpectedMatches, w.KeySum)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The least of eight: under the race detector sync.Pool.Put drops one
	// object in four on purpose, and a query that follows a drop allocates
	// its table like the first.
	first, least := query(), ^uint64(0)
	for i := 0; i < 8; i++ {
		least = min(least, query())
	}
	if least > 512<<10 {
		t.Fatalf("a repeated query allocated %d bytes at least (the first: %d); want under 512 KiB, a fraction of the table's %d",
			least, first, 30_000*116)
	}
}
