package main

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"hashjoin"
)

// prepared builds n distinct BuildSides on one plain Env for driving
// the cache deterministically (no server, no scheduler).
func prepared(t *testing.T, n int) []*hashjoin.BuildSide {
	t.Helper()
	env := hashjoin.NewEnv(hashjoin.WithSmallHierarchy(), hashjoin.WithCapacity(64<<20))
	ctx := context.Background()
	out := make([]*hashjoin.BuildSide, n)
	for i := range out {
		w, err := env.GenerateWorkload(ctx, 1000, 1000, 24, int64(i+1))
		if err != nil {
			t.Fatalf("workload %d: %v", i, err)
		}
		b, err := env.PrepareBuildSide(ctx, w.Build)
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		out[i] = b
	}
	return out
}

func cachedGet(t *testing.T, c *buildCache, name string, b *hashjoin.BuildSide) bool {
	t.Helper()
	got, hit, err := c.get(name, nil, func() (*hashjoin.BuildSide, error) { return b, nil })
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	if got != b && !hit {
		t.Fatalf("get %s returned a different handle on a miss", name)
	}
	return hit
}

// TestBuildCacheLRUEviction pins the byte-budget behavior: inserting
// past the limit evicts the least-recently-used entry, and a re-get of
// the evicted name misses while the survivor still hits.
func TestBuildCacheLRUEviction(t *testing.T) {
	bs := prepared(t, 3)
	per := int64(bs[0].Bytes())
	c := newBuildCache(2*per + per/2) // room for two tables, not three

	cachedGet(t, c, "a", bs[0])
	cachedGet(t, c, "b", bs[1])
	if !cachedGet(t, c, "a", bs[0]) {
		t.Fatal("a missed while resident")
	}
	cachedGet(t, c, "c", bs[2]) // over budget: evicts b (LRU), not a

	hits, misses, evicts, resident := c.counters()
	if evicts != 1 {
		t.Fatalf("evictions = %d, want 1", evicts)
	}
	if resident > c.limit {
		t.Fatalf("resident %d over limit %d", resident, c.limit)
	}
	if !cachedGet(t, c, "a", bs[0]) {
		t.Fatal("a was evicted; LRU should have chosen b")
	}
	if cachedGet(t, c, "b", bs[1]) {
		t.Fatal("b hit after eviction")
	}
	hits, misses, _, _ = c.counters()
	if hits != 2 || misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 2/4", hits, misses)
	}
}

// TestBuildCacheTrimDecay pins the reclaim wiring: an entry untouched
// for cacheIdleGenerations trim calls is evicted; one hit in between
// resets its age.
func TestBuildCacheTrimDecay(t *testing.T) {
	bs := prepared(t, 1)
	c := newBuildCache(int64(bs[0].Bytes()) * 4)
	cachedGet(t, c, "a", bs[0])

	for i := 0; i < cacheIdleGenerations-1; i++ {
		c.trim()
	}
	if !cachedGet(t, c, "a", bs[0]) {
		t.Fatal("entry evicted before the idle threshold")
	}
	for i := 0; i < cacheIdleGenerations-1; i++ {
		c.trim()
	}
	if !cachedGet(t, c, "a", bs[0]) {
		t.Fatal("hit did not reset the entry's idle age")
	}
	// The first trim after a hit only resets the age baseline; the
	// entry then needs cacheIdleGenerations cold trims to die.
	for i := 0; i < cacheIdleGenerations+1; i++ {
		c.trim()
	}
	if cachedGet(t, c, "a", bs[0]) {
		t.Fatal("cold entry survived the full idle decay")
	}
	if _, _, _, resident := c.counters(); resident != int64(bs[0].Bytes()) {
		t.Fatalf("resident = %d after re-build, want one table", resident)
	}
}

// TestBuildCacheInvalidate covers both invalidation paths: a ready
// entry is dropped with its bytes, and a stale-relation lookup under a
// reused name rebuilds instead of serving the old table.
func TestBuildCacheInvalidate(t *testing.T) {
	bs := prepared(t, 2)
	c := newBuildCache(1 << 30)
	cachedGet(t, c, "a", bs[0])
	c.invalidate("a")
	if _, _, evicts, resident := c.counters(); evicts != 1 || resident != 0 {
		t.Fatalf("after invalidate: evicts=%d resident=%d, want 1/0", evicts, resident)
	}
	if cachedGet(t, c, "a", bs[0]) {
		t.Fatal("hit after invalidate")
	}

	// Same name, different relation identity: must rebuild.
	fake := &hashjoin.Relation{}
	got, hit, err := c.get("a", fake, func() (*hashjoin.BuildSide, error) { return bs[1], nil })
	if err != nil || hit || got != bs[1] {
		t.Fatalf("stale-relation get = (%v, hit=%v, %v), want rebuild", got, hit, err)
	}
}

// TestBuildCacheSurvivesSteadyLoad pins the trim rule: a trim that
// follows any lookup ages nothing, so an entry hit only every
// cacheIdleGenerations+2 trims stays resident while other lookups run
// between them; trims on an idle cache still evict it.
func TestBuildCacheSurvivesSteadyLoad(t *testing.T) {
	bs := prepared(t, 2)
	c := newBuildCache(int64(bs[0].Bytes()) * 4)
	cachedGet(t, c, "a", bs[0])

	for round := 0; round < 4; round++ {
		for i := 0; i < cacheIdleGenerations+2; i++ {
			cachedGet(t, c, "b", bs[1])
			c.trim()
		}
		if !cachedGet(t, c, "a", bs[0]) {
			t.Fatalf("round %d: entry evicted under steady load", round)
		}
	}
	if _, _, evicts, _ := c.counters(); evicts != 0 {
		t.Fatalf("evictions = %d under steady load, want 0", evicts)
	}

	// The first trim absorbs the last lookups; the idle ones then age.
	for i := 0; i < cacheIdleGenerations+1; i++ {
		c.trim()
	}
	if cachedGet(t, c, "a", bs[0]) {
		t.Fatal("entry survived the idle decay")
	}
}

// TestBuildCacheWaiterRetriesCancelledBuild: a caller that joined a
// build whose own context was cancelled must not inherit that
// cancellation — it builds under its own build func and succeeds.
func TestBuildCacheWaiterRetriesCancelledBuild(t *testing.T) {
	bs := prepared(t, 1)
	c := newBuildCache(1 << 30)

	started, release := make(chan struct{}), make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		_, _, err := c.get("a", nil, func() (*hashjoin.BuildSide, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
		firstErr <- err
	}()
	<-started

	type result struct {
		b   *hashjoin.BuildSide
		err error
	}
	second := make(chan result, 1)
	go func() {
		b, _, err := c.get("a", nil, func() (*hashjoin.BuildSide, error) { return bs[0], nil })
		second <- result{b, err}
	}()
	// Release the first build only once the second caller has joined it.
	for {
		if hits, _, _, _ := c.counters(); hits == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)

	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("first get: %v, want context.Canceled", err)
	}
	r := <-second
	if r.err != nil || r.b != bs[0] {
		t.Fatalf("second get = (%v, %v), want its own build", r.b, r.err)
	}
	if hits, misses, _, resident := c.counters(); hits != 1 || misses != 2 || resident != int64(bs[0].Bytes()) {
		t.Fatalf("hits/misses/resident = %d/%d/%d, want 1/2/%d", hits, misses, resident, bs[0].Bytes())
	}
}
