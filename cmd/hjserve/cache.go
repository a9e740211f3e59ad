package main

import (
	"context"
	"errors"
	"sync"

	"hashjoin"
)

// buildCache keeps prepared build sides (hashjoin.PrepareBuildSide)
// resident across queries, keyed by pair name: the first native query
// against a pair that streams (fanout<=1) or leaves the strategy to the
// planner builds the hash table once, every later one probes it through
// private scratch without rebuilding. Entries
// are built single-flight — concurrent queries for the same pair share
// one build — and the cache holds at most limit bytes of row tables,
// evicting least-recently-used entries past that.
//
// The tables live on the Go heap, outside the Env's arena, so the
// cache never competes with admission windows for arena bytes; what it
// does hold live is the pair's relations (durable arena data). trim,
// wired to the Env's quiescent-reclaim hook, decays the cache in step
// with the service going idle so a cold cache cannot pin state the
// admission side has already reclaimed around.
type buildCache struct {
	limit int64 // byte budget; <= 0 disables the cache

	mu       sync.Mutex
	entries  map[string]*cacheEntry
	seq      int64 // access clock, bumped per lookup
	trimSeq  int64 // clock value at the last trim
	resident int64 // ready bytes in the map
	hits     uint64
	misses   uint64
	evicts   uint64
}

type cacheEntry struct {
	ready chan struct{} // closed once b/err are set

	// rel identifies the relation snapshot the entry was built over, so
	// a pair overwrite racing an in-flight build cannot leave a stale
	// table cached under the reused name.
	rel *hashjoin.Relation

	b   *hashjoin.BuildSide
	err error

	bytes    int64
	lastUse  int64
	idleGens int  // consecutive idle trim generations without a hit
	done     bool // guarded by buildCache.mu; set before ready closes
	dropped  bool // invalidated while building: never account as resident
}

// cacheIdleGenerations is how many consecutive idle trim generations —
// reclaims with no cache lookup since the previous one — an entry may
// sit unused before it is evicted. Reclaims fire after quiescent grant
// releases, up to one per query under load, so only trims of a service
// gone quiet count: under steady traffic the byte budget alone bounds
// the cache.
const cacheIdleGenerations = 8

func newBuildCache(limit int64) *buildCache {
	return &buildCache{limit: limit, entries: make(map[string]*cacheEntry)}
}

func (c *buildCache) enabled() bool { return c != nil && c.limit > 0 }

// get returns the build side cached under name for the relation rel,
// calling build on a miss. The boolean reports a hit (including
// joining another caller's in-flight build). A build that errors is
// forgotten, so the next query retries rather than replaying a stale
// failure. A joined build that failed by cancellation ended with its
// builder's context, not the caller's, so the caller looks up again and
// builds under its own build func if no other build is in flight.
func (c *buildCache) get(name string, rel *hashjoin.Relation, build func() (*hashjoin.BuildSide, error)) (*hashjoin.BuildSide, bool, error) {
	c.mu.Lock()
	c.seq++
	if e, ok := c.entries[name]; ok && e.rel == rel {
		e.lastUse = c.seq
		c.hits++
		c.mu.Unlock()
		<-e.ready
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			return c.get(name, rel, build)
		}
		if e.err != nil {
			return nil, true, e.err
		}
		return e.b, true, nil
	} else if ok {
		// The pair was regenerated under the same name; drop the stale
		// entry and rebuild over the new relation.
		c.removeLocked(name, e)
	}
	e := &cacheEntry{ready: make(chan struct{}), rel: rel, lastUse: c.seq}
	c.entries[name] = e
	c.misses++
	c.mu.Unlock()

	b, err := build()

	c.mu.Lock()
	e.b, e.err = b, err
	e.done = true
	if err == nil {
		e.bytes = int64(b.Bytes())
		if !e.dropped {
			c.resident += e.bytes
			c.evictOverLimitLocked(e)
		}
	} else if c.entries[name] == e {
		delete(c.entries, name)
	}
	c.mu.Unlock()
	close(e.ready)
	return b, false, err
}

// invalidate drops the entry cached under name (pair overwritten). An
// in-flight build is marked dropped so it never becomes resident.
func (c *buildCache) invalidate(name string) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		c.removeLocked(name, e)
	}
	c.mu.Unlock()
}

// trim runs on the Env's quiescent-reclaim hook. A trim that follows
// any lookup resets the age of the entries hit since the previous trim
// and ages nothing: reclaims fire nearly once per query, so a table
// taking a fifth of the traffic routinely sees several pass between
// its hits. An idle trim (no lookup since the previous one) ages every
// entry, and an entry idle for cacheIdleGenerations of them is evicted
// — so the cache decays in step with the service going quiet instead
// of pinning cold tables forever.
func (c *buildCache) trim() {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	idle := c.seq == c.trimSeq
	for name, e := range c.entries {
		if !e.done || e.err != nil {
			continue
		}
		if e.lastUse > c.trimSeq {
			e.idleGens = 0
			continue
		}
		if !idle {
			continue
		}
		if e.idleGens++; e.idleGens >= cacheIdleGenerations {
			c.removeLocked(name, e)
		}
	}
	c.trimSeq = c.seq
	c.mu.Unlock()
}

// counters snapshots the cache statistics.
func (c *buildCache) counters() (hits, misses, evicts uint64, resident int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicts, c.resident
}

// removeLocked unmaps an entry and reverses its accounting. A ready
// entry's bytes leave resident as an eviction; an in-flight one is
// flagged so its completion never adds them.
func (c *buildCache) removeLocked(name string, e *cacheEntry) {
	delete(c.entries, name)
	if e.done && e.err == nil && !e.dropped {
		c.resident -= e.bytes
		c.evicts++
	}
	e.dropped = true
}

// evictOverLimitLocked evicts least-recently-used ready entries until
// resident fits the limit, never evicting keep (the entry just built).
func (c *buildCache) evictOverLimitLocked(keep *cacheEntry) {
	for c.resident > c.limit {
		var victim *cacheEntry
		victimName := ""
		for name, e := range c.entries {
			if e == keep || !e.done || e.err != nil || e.dropped {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimName = e, name
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victimName, victim)
	}
}
