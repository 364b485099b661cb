package scenario

import (
	"math"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
	"repro/internal/workload"
)

// normNaN replaces NaN completion times (incomplete runs) so that
// reflect.DeepEqual — under which NaN != NaN — can compare results.
func normNaN(r *Result) {
	if math.IsNaN(r.CompletionTime) {
		r.CompletionTime = -1
	}
}

// TestPooledRunsIdentical is the Layer-2 golden test: runs on recycled
// pooled state must be bit-identical — traces included — to runs on
// fresh allocations.
func TestPooledRunsIdentical(t *testing.T) {
	scs := []Scenario{
		StaticLab(s3(), 8, 6, workload.FileDownload{Size: 8 * units.MB}),
		Mobility(s3()),
		RandomBandwidth(s3(), workload.FileDownload{Size: 16 * units.MB}),
	}
	for _, sc := range scs {
		for _, proto := range []Protocol{TCPWiFi, MPTCP, EMPTCP, WiFiFirst} {
			for _, seed := range []int64{0, 3} {
				opt := Opts{Seed: seed, Trace: true}
				fresh := new(RunState).runOne(sc, proto, opt)
				// Exercise real pool recycling: the pooled path has seen
				// other scenarios by the time this run reuses a state.
				pooled := Run(sc, proto, opt)
				again := Run(sc, proto, opt)
				normNaN(&fresh)
				normNaN(&pooled)
				normNaN(&again)
				if !reflect.DeepEqual(fresh, pooled) {
					t.Fatalf("%s/%v seed %d: pooled result differs from fresh\nfresh:  %+v\npooled: %+v",
						sc.Name, proto, seed, fresh, pooled)
				}
				if !reflect.DeepEqual(pooled, again) {
					t.Fatalf("%s/%v seed %d: repeated pooled runs differ", sc.Name, proto, seed)
				}
			}
		}
	}
}

// countingPool swaps statePool for a counting one so a test can assert
// that error paths return every pooled RunState. GC is disabled for the
// duration: sync.Pool may legitimately drop items at a GC, which would
// make the count meaningless.
func countingPool(t *testing.T) *atomic.Int64 {
	t.Helper()
	old := statePool
	oldGC := debug.SetGCPercent(-1)
	states := new(atomic.Int64)
	statePool = &sync.Pool{New: func() any { states.Add(1); return new(RunState) }}
	t.Cleanup(func() {
		statePool = old
		debug.SetGCPercent(oldGC)
	})
	return states
}

// TestRunPooledPanicReturnsState pins the runPooled error path: a run
// that panics mid-launch must still return its RunState to the pool, and
// the recycled state must keep producing bit-identical results.
func TestRunPooledPanicReturnsState(t *testing.T) {
	states := countingPool(t)

	good := StaticLab(s3(), 4, 4.5, workload.FileDownload{Size: 64 * units.KB})
	ref := new(RunState).runOne(good, EMPTCP, Opts{Seed: 5})
	normNaN(&ref)

	bad := good
	bad.WiFi = func(*sim.Engine, *simrng.Source) link.Process { panic("launch failure") }

	for i := 0; i < 8; i++ {
		pv := func() (pv any) {
			defer func() { pv = recover() }()
			Run(bad, EMPTCP, Opts{Seed: int64(i)})
			return nil
		}()
		if pv != "launch failure" {
			t.Fatalf("iteration %d: panic %v", i, pv)
		}
		// A healthy run on the recycled (mid-launch-abandoned) state.
		res := Run(good, EMPTCP, Opts{Seed: 5})
		normNaN(&res)
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("iteration %d: pooled run after panic differs from fresh-state run", i)
		}
	}
	if n := states.Load(); !raceEnabled && n > 2 {
		t.Errorf("pool allocated %d states across %d panicking runs, want ≤ 2 (states leaked)", n, 8)
	}
}
