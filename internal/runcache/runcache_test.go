package runcache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lifetimes lists the Flight constructors; every single-flight test
// runs once per row. NewMemo, which keeps every landed value, is the
// only one.
var lifetimes = []struct {
	name string
	new  func() *Flight[int]
}{
	{"memo", NewMemo[int]},
}

func key(b byte) Key {
	var k Key
	k[0] = b
	k[31] = b ^ 0xff
	return k
}

// awaitWaits blocks until n callers are waiting on an in-flight call.
func awaitWaits(g *Flight[int], n uint64) {
	for {
		if _, _, w := g.FlightStats(); w >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDoMemoizes pins the lifetime: sequential calls of one key hit
// the memo, and the counters say so.
func TestDoMemoizes(t *testing.T) {
	for _, tc := range lifetimes {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.new()
			calls := 0
			for i := 0; i < 5; i++ {
				if got := g.Do(key(1), func() int { calls++; return 42 }); got != 42 {
					t.Fatalf("Do = %d, want 42", got)
				}
			}
			if got := g.Do(key(2), func() int { calls++; return 7 }); got != 7 {
				t.Fatalf("Do = %d, want 7", got)
			}
			const wantCalls, wantHits = 2, 4
			if calls != wantCalls {
				t.Fatalf("compute ran %d times, want %d", calls, wantCalls)
			}
			hits, misses, waits := g.FlightStats()
			if hits != wantHits || misses != uint64(wantCalls) || waits != 0 {
				t.Fatalf("FlightStats = (%d, %d, %d), want (%d, %d, 0)", hits, misses, waits, wantHits, wantCalls)
			}
		})
	}
}

// TestDoSingleFlight parks seven callers on one in-flight call and
// checks that they share its result instead of computing their own.
func TestDoSingleFlight(t *testing.T) {
	for _, tc := range lifetimes {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.new()
			var calls atomic.Int32
			release := make(chan struct{})
			started := make(chan struct{})
			var wg sync.WaitGroup
			results := make([]int, 8)
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[0] = g.Do(key(3), func() int {
					calls.Add(1)
					close(started)
					<-release
					return 99
				})
			}()
			<-started
			for i := 1; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = g.Do(key(3), func() int {
						calls.Add(1)
						return -1
					})
				}(i)
			}
			awaitWaits(g, 7)
			close(release)
			wg.Wait()
			if n := calls.Load(); n != 1 {
				t.Fatalf("compute ran %d times, want 1", n)
			}
			for i, r := range results {
				if r != 99 {
					t.Fatalf("results[%d] = %d, want 99", i, r)
				}
			}
			if hits, misses, waits := g.FlightStats(); hits != 7 || misses != 1 || waits != 7 {
				t.Fatalf("FlightStats = (%d, %d, %d), want (7, 1, 7)", hits, misses, waits)
			}
		})
	}
}

// TestFlightSingleFlight releases sixteen callers of one key at once,
// with no ordering: they compute exactly once, and every caller is
// counted as a hit or a miss.
func TestFlightSingleFlight(t *testing.T) {
	for _, tc := range lifetimes {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.new()
			var computes atomic.Int64
			var wg sync.WaitGroup
			const workers = 16
			start := make(chan struct{})
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if v := g.Do(key(1), func() int { computes.Add(1); return 7 }); v != 7 {
						t.Errorf("got %d", v)
					}
				}()
			}
			close(start)
			wg.Wait()
			n := computes.Load()
			if n != 1 {
				t.Fatalf("computes=%d", n)
			}
			if hits, misses, _ := g.FlightStats(); misses != uint64(n) || hits+misses != workers {
				t.Fatalf("hits=%d misses=%d for %d computes of %d callers", hits, misses, n, workers)
			}
		})
	}
}

// TestDoPanicPropagates panics inside a call with seven callers waiting
// on it: each of them re-panics with the same value.
func TestDoPanicPropagates(t *testing.T) {
	for _, tc := range lifetimes {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.new()
			release := make(chan struct{})
			started := make(chan struct{})
			var wg sync.WaitGroup
			recovered := make([]any, 8)
			do := func(i int, fn func() int) {
				defer wg.Done()
				defer func() { recovered[i] = recover() }()
				g.Do(key(4), fn)
			}
			wg.Add(1)
			go do(0, func() int {
				close(started)
				<-release
				panic("boom")
			})
			<-started
			for i := 1; i < 8; i++ {
				wg.Add(1)
				go do(i, func() int { return -1 })
			}
			awaitWaits(g, 7)
			close(release)
			wg.Wait()
			for i, r := range recovered {
				if r != "boom" {
					t.Fatalf("caller %d recovered %v, want boom", i, r)
				}
			}
		})
	}
}

// TestFlightPanicPropagatesAndClears checks that a panicking call is
// forgotten: the next call of its key computes, and its value lands.
func TestFlightPanicPropagatesAndClears(t *testing.T) {
	for _, tc := range lifetimes {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.new()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				g.Do(key(2), func() int { panic("boom") })
			}()
			if v := g.Do(key(2), func() int { return 3 }); v != 3 {
				t.Fatalf("got %d after panic, want 3", v)
			}
			if v := g.Do(key(2), func() int { return 4 }); v != 3 {
				t.Fatalf("got %d once a value landed, want 3", v)
			}
		})
	}
}
