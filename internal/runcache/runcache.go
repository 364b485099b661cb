// Package runcache memoizes simulation results across experiments.
//
// Experiment grids re-run the same (scenario, protocol, seed) triple
// many times: section tables share baselines, ablations share the
// untouched arm, and repeated-seed aggregation re-visits identical
// configurations when grids overlap. The cache is a sharded,
// single-flight, content-keyed map from a canonical digest of the run
// inputs to the finished result, so each distinct simulation executes
// exactly once per process no matter how many tables ask for it.
//
// Correctness rests on runs being pure functions of their digested
// inputs: the scenario package only consults the cache for scenarios
// whose construction it controls (see scenario.CacheKey), and a cached
// result is returned by value, never aliased.
package runcache

import (
	"sync"
	"sync/atomic"
)

// Key is a canonical content digest of one run's inputs — in practice a
// SHA-256 of the scenario configuration, protocol, seed, and options.
type Key [32]byte

const shardCount = 16

// entry is a single-flight slot. The first caller closes done after
// publishing val; latecomers block on done. A panic in the compute
// function is recorded and re-thrown to every waiter so a poisoned
// entry does not hang the grid.
type entry[V any] struct {
	done     chan struct{}
	val      V
	panicked any
}

type shard[V any] struct {
	mu sync.Mutex
	m  map[Key]*entry[V]
}

// Cache memoizes values of type V under content Keys. The zero value is
// not usable; call New. A nil *Cache is a valid "caching disabled"
// sentinel: Do on a nil receiver just calls the compute function.
type Cache[V any] struct {
	shards [shardCount]shard[V]

	// Statistics are lock-free atomics so the hot path never serializes
	// on a counter mutex; FlightStats assembles a consistent snapshot.
	nHit  atomic.Uint64
	nMiss atomic.Uint64
	nWait atomic.Uint64 // hits that blocked on an in-flight compute
}

// New returns an empty cache.
func New[V any]() *Cache[V] {
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*entry[V])
	}
	return c
}

// Do returns the cached value for k, computing it with fn on first use.
// Concurrent calls with the same key run fn once and share the result.
// If fn panics, the panic propagates to every caller waiting on that
// key, and the entry stays poisoned (repeating the panic) — a panicking
// run is a bug, not a transient.
func (c *Cache[V]) Do(k Key, fn func() V) V {
	if c == nil {
		return fn()
	}
	sh := &c.shards[k[0]%shardCount]
	sh.mu.Lock()
	e, ok := sh.m[k]
	if !ok {
		e = &entry[V]{done: make(chan struct{})}
		sh.m[k] = e
	}
	sh.mu.Unlock()

	if ok {
		// Distinguish settled hits from single-flight waits: a wait means
		// another goroutine is computing this key right now, which is the
		// signal -v surfaces for how much duplicate work the cache merged.
		waited := false
		select {
		case <-e.done:
		default:
			waited = true
			<-e.done
		}
		// Count the hit before the wait: FlightStats reads waits before
		// hits, so "waits ≤ hits" holds at every instant.
		c.nHit.Add(1)
		if waited {
			c.nWait.Add(1)
		}
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.val
	}

	c.nMiss.Add(1)
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			close(e.done)
			panic(r)
		}
	}()
	e.val = fn()
	close(e.done)
	return e.val
}

// Stats reports the number of cache hits and misses so far. Safe to
// call concurrently with Do.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	hits, misses, _ = c.FlightStats()
	return hits, misses
}

// FlightStats reports hits, misses, and single-flight waits — hits that
// arrived while the key was still computing and blocked for the shared
// result instead of recomputing it. Safe to call concurrently with Do.
//
// The counters are independent atomics, so a naive three-load read could
// tear: a Do between loads would show, say, the wait without its hit.
// FlightStats double-reads until the triple is stable, which yields a
// snapshot no concurrent reporter (emptcpsim -v, the serve-mode progress
// endpoint) can observe mid-update. The load order — waits, then hits,
// then misses — additionally preserves the structural invariants
// (waits ≤ hits; every hit's miss already counted) even on the bounded
// fallback under pathological contention.
func (c *Cache[V]) FlightStats() (hits, misses, waits uint64) {
	if c == nil {
		return 0, 0, 0
	}
	w, h, m := c.nWait.Load(), c.nHit.Load(), c.nMiss.Load()
	for i := 0; i < 64; i++ {
		w2, h2, m2 := c.nWait.Load(), c.nHit.Load(), c.nMiss.Load()
		if w == w2 && h == h2 && m == m2 {
			break
		}
		w, h, m = w2, h2, m2
	}
	return h, m, w
}

// Len reports the number of distinct keys resident in the cache,
// including in-flight entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
