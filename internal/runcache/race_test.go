package runcache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightStatsConsistentUnderHammer hammers a single key from N
// goroutines while concurrent readers poll FlightStats, asserting the
// counters are race-safe (run under -race in CI) and that every observed
// snapshot is consistent: waits never exceed hits and hits imply a
// counted miss. The memo settles to exactly one miss and N−1 hits.
func TestFlightStatsConsistentUnderHammer(t *testing.T) {
	const (
		workers = 32
		rounds  = 50
	)
	for _, tc := range lifetimes {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				hammer(t, tc.new(), Key{byte(round), byte(round >> 8)}, workers)
			}
		})
	}
}

func hammer(t *testing.T, g *Flight[int], key Key, workers int) {
	var computes atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hits, misses, waits := g.FlightStats()
				if waits > hits {
					t.Errorf("torn snapshot: waits=%d > hits=%d", waits, hits)
					return
				}
				if hits > 0 && misses == 0 {
					t.Errorf("torn snapshot: %d hits with no miss", hits)
					return
				}
				if misses > 1 {
					t.Errorf("single key computed %d times", misses)
					return
				}
				runtime.Gosched() // let the callers run between polls
			}
		}()
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v := g.Do(key, func() int {
				computes.Add(1)
				time.Sleep(100 * time.Microsecond) // widen the in-flight window
				return 42
			})
			if v != 42 {
				t.Errorf("got %d, want 42", v)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(stop)
	readers.Wait()

	n := computes.Load()
	if n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	hits, misses, waits := g.FlightStats()
	if misses != uint64(n) || hits+misses != uint64(workers) {
		t.Fatalf("settled stats hits=%d misses=%d, want %d computes of %d callers", hits, misses, n, workers)
	}
	if waits > hits {
		t.Fatalf("settled waits=%d > hits=%d", waits, hits)
	}
}
