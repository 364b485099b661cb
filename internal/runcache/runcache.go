// Package runcache deduplicates simulation runs by content key.
//
// Experiment grids re-run the same (scenario, protocol, seed) triple:
// section tables share baselines and ablations share the untouched arm.
// Flight is a single-flight memo from a digest of the run inputs to the
// result, so concurrent callers of one key simulate it once and later
// callers hit (the paper suite's cache). Campaigns persist results in
// the disk Store instead, which dedupes replicas across invocations.
//
// Correctness rests on runs being pure functions of their digested
// inputs (see scenario.CacheKey), and results are returned by value.
package runcache

import (
	"sync"
	"sync/atomic"
)

// Key is a canonical content digest of one run's inputs — in practice a
// SHA-256 of the scenario configuration, protocol, seed, and options.
type Key [32]byte

// Flight runs one computation per key across concurrent Do callers and
// keeps each landed value. Create it with NewMemo.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[Key]*call[V]

	// Lock-free counters; FlightStats assembles a consistent snapshot.
	nHit, nMiss, nWait atomic.Uint64
}

// call is one key's slot: its computing caller closes done after
// setting val or panicked, and latecomers block on done.
type call[V any] struct {
	done     chan struct{}
	val      V
	panicked any
}

// NewMemo returns an empty flight: every Do of a key after its value
// lands is a hit.
func NewMemo[V any]() *Flight[V] {
	return &Flight[V]{m: make(map[Key]*call[V])}
}

// Do returns fn's result for k. Concurrent calls with the same key run
// fn once and share the result. If fn panics, the panic propagates to
// every caller waiting on that call and the key is forgotten.
func (g *Flight[V]) Do(k Key, fn func() V) V {
	g.mu.Lock()
	if c, ok := g.m[k]; ok {
		g.mu.Unlock()
		// The miss is counted before its call is published and the hit
		// before its wait, the reverse of FlightStats' load order.
		g.nHit.Add(1)
		select {
		case <-c.done:
		default: // in flight: the duplicate work -v reports
			g.nWait.Add(1)
			<-c.done
		}
		if c.panicked != nil {
			panic(c.panicked)
		}
		return c.val
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[k] = c
	g.nMiss.Add(1)
	g.mu.Unlock()

	landed := false
	defer func() {
		if !landed { // fn panicked or exited its goroutine: keep nothing
			c.panicked = recover()
			g.mu.Lock()
			delete(g.m, k)
			g.mu.Unlock()
		}
		close(c.done)
		if c.panicked != nil {
			panic(c.panicked)
		}
	}()
	c.val = fn()
	landed = true
	return c.val
}

// FlightStats reports hits, misses, and single-flight waits — hits that
// found their key still computing and blocked for the shared result.
// Safe to call concurrently with Do. It re-reads the three atomics until
// they are stable, so a reporter never sees a call half-counted, and
// loads waits, then hits, then misses, so waits ≤ hits and every hit's
// miss is counted even on the bounded fallback.
func (g *Flight[V]) FlightStats() (hits, misses, waits uint64) {
	w, h, m := g.nWait.Load(), g.nHit.Load(), g.nMiss.Load()
	for i := 0; i < 64; i++ {
		w2, h2, m2 := g.nWait.Load(), g.nHit.Load(), g.nMiss.Load()
		if w == w2 && h == h2 && m == m2 {
			break
		}
		w, h, m = w2, h2, m2
	}
	return h, m, w
}
