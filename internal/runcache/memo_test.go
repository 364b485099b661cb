package runcache_test

// The run cache has two levels, both keyed by runcache.Key and both
// first-write-wins: this package's Store, which disk_test.go covers, and
// scenario.RunCache, the in-memory memo one suite shares across its
// tables. The tests here pin the memo through its exported methods, each
// in a subtest named after that level. CI runs them under -race.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runcache"
	"repro/internal/scenario"
)

func result(x int) func() scenario.Result {
	return func() scenario.Result { return scenario.Result{Switches: x} }
}

// TestDoMemoizes: a landed Result is returned to every later call of its
// key without running fn again, and the counters say so.
func TestDoMemoizes(t *testing.T) {
	t.Run("memo", func(t *testing.T) {
		c := scenario.NewRunCache()
		calls := 0
		for i := 0; i < 5; i++ {
			got := c.Do(runcache.Key{1}, func() scenario.Result { calls++; return scenario.Result{Switches: 42 + i} })
			if got.Switches != 42 {
				t.Fatalf("call %d got %d, want the landed 42", i, got.Switches)
			}
		}
		for i := 0; i < 2; i++ {
			if got := c.Do(runcache.Key{2}, func() scenario.Result { calls++; return scenario.Result{Switches: 7} }); got.Switches != 7 {
				t.Fatalf("second key got %d, want 7", got.Switches)
			}
		}
		const wantCalls, wantHits = 2, 5
		if calls != wantCalls {
			t.Fatalf("fn ran %d times, want %d", calls, wantCalls)
		}
		if h, m, d := c.FlightStats(); h != wantHits || m != wantCalls || d != 0 {
			t.Fatalf("FlightStats = (%d, %d, %d), want (%d, %d, 0)", h, m, d, wantHits, wantCalls)
		}
	})
}

// TestFlightPanicPropagatesAndClears panics inside a computation: only
// its caller panics, nothing is stored, and the next call computes.
func TestFlightPanicPropagatesAndClears(t *testing.T) {
	t.Run("memo", func(t *testing.T) {
		c := scenario.NewRunCache()
		k := runcache.Key{4}
		func() {
			defer func() {
				if recover() != "boom" {
					t.Fatal("the computing caller did not see its panic")
				}
			}()
			c.Do(k, func() scenario.Result { panic("boom") })
		}()
		if got := c.Do(k, result(3)); got.Switches != 3 {
			t.Fatalf("got %d after the panic, want 3", got.Switches)
		}
		if got := c.Do(k, result(4)); got.Switches != 3 {
			t.Fatalf("got %d once a Result landed, want 3", got.Switches)
		}
		if h, m, d := c.FlightStats(); h != 1 || m != 2 || d != 0 {
			t.Fatalf("FlightStats = (%d, %d, %d), want (1, 2, 0)", h, m, d)
		}
	})
}

// TestFlightSingleFlight releases N callers of one key together, each
// computing a different Result: every caller gets the one stored first,
// each miss ran fn once, and every store after the first is counted as
// a duplicate.
func TestFlightSingleFlight(t *testing.T) {
	t.Run("memo", func(t *testing.T) {
		const workers = 32
		for round := 0; round < 20; round++ {
			c := scenario.NewRunCache()
			k := runcache.Key{5, byte(round)}
			got := make([]int, workers)
			var computes atomic.Uint64
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[w] = c.Do(k, func() scenario.Result {
						computes.Add(1)
						time.Sleep(100 * time.Microsecond) // widen the window in which callers miss together
						return scenario.Result{Switches: w}
					}).Switches
				}()
			}
			close(start)
			wg.Wait()
			h, m, d := c.FlightStats()
			if h+m != workers || m != computes.Load() || d != m-1 {
				t.Fatalf("round %d: FlightStats = (%d, %d, %d) for %d computes, want hits+misses = %d, misses = computes, duplicates = misses-1",
					round, h, m, d, computes.Load(), workers)
			}
			stored := c.Do(k, result(-1)).Switches
			for w, g := range got {
				if g != stored {
					t.Fatalf("round %d: caller %d got %d, want the stored %d", round, w, g, stored)
				}
			}
		}
	})
}
