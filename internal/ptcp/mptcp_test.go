package ptcp

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func runMP(t *testing.T, cfg MPConfig, links []Link, size units.ByteSize, horizon float64) MPResult {
	t.Helper()
	eng := sim.New()
	eng.Horizon = horizon
	return RunMPTCP(eng, cfg, links, size)
}

// TestMPTCPSinglePathMatchesSingleFlow: one subflow is plain Reno behind a
// 2·OWD handshake, and LIA's alpha degenerates to exactly 1/cwnd with one
// subflow, so the whole transfer is the single-flow run time-shifted by
// the handshake.
func TestMPTCPSinglePathMatchesSingleFlow(t *testing.T) {
	link := Link{Rate: units.MbpsRate(10), OneWayDelay: 0.025, QueuePackets: 64}
	size := 4 * units.MB

	eng := sim.New()
	eng.Horizon = 600
	single := Run(eng, DefaultConfig(), link, size)

	mp := runMP(t, DefaultMPConfig(), []Link{link}, size, 600)
	if !mp.Completed || !single.Completed {
		t.Fatalf("not completed: single %+v mp %+v", single, mp)
	}
	want := single.FinishedAt + 2*link.OneWayDelay
	if diff := math.Abs(mp.FinishedAt - want); diff > 1e-6 {
		t.Errorf("single-subflow MPTCP finished at %v, want %v (single flow + handshake), diff %g",
			mp.FinishedAt, want, diff)
	}
	if mp.Delivered != single.Delivered {
		t.Errorf("delivered %v, want %v", mp.Delivered, single.Delivered)
	}
	if mp.Packets != single.Packets {
		t.Errorf("packets %d, want %d", mp.Packets, single.Packets)
	}
	if mp.Reordered != 0 {
		t.Errorf("single path cannot reorder, got %d", mp.Reordered)
	}
}

// TestMPTCPTwoPathsAggregate: two equal paths should beat one of them and
// respect the physical bound of the summed rates.
func TestMPTCPTwoPathsAggregate(t *testing.T) {
	link := Link{Rate: units.MbpsRate(10), OneWayDelay: 0.025, QueuePackets: 64}
	size := 16 * units.MB

	eng := sim.New()
	eng.Horizon = 600
	single := Run(eng, DefaultConfig(), link, size)

	mp := runMP(t, DefaultMPConfig(), []Link{link, link}, size, 600)
	if !mp.Completed {
		t.Fatalf("not completed: %+v", mp)
	}
	if mp.Delivered != size {
		t.Fatalf("delivered %v, want %v", mp.Delivered, size)
	}
	if mp.FinishedAt >= single.FinishedAt {
		t.Errorf("two paths (%.3fs) not faster than one (%.3fs)", mp.FinishedAt, single.FinishedAt)
	}
	floor := size.Bits() / (2 * float64(link.Rate))
	if mp.FinishedAt < floor {
		t.Errorf("finished at %.3fs, below the physical floor %.3fs", mp.FinishedAt, floor)
	}
	var sum units.ByteSize
	for _, sub := range mp.Subflows {
		sum += sub.Delivered
	}
	if sum != size {
		t.Errorf("per-subflow delivered sums to %v, want %v", sum, size)
	}
}

// TestMPTCPMinRTTSchedulerPrefersFastPath: with equal rates, the low-RTT
// subflow must carry more of the transfer.
func TestMPTCPMinRTTSchedulerPrefersFastPath(t *testing.T) {
	fast := Link{Rate: units.MbpsRate(10), OneWayDelay: 0.010, QueuePackets: 64}
	slow := Link{Rate: units.MbpsRate(10), OneWayDelay: 0.100, QueuePackets: 64}
	mp := runMP(t, DefaultMPConfig(), []Link{fast, slow}, 16*units.MB, 600)
	if !mp.Completed {
		t.Fatalf("not completed: %+v", mp)
	}
	if mp.Subflows[0].Delivered <= mp.Subflows[1].Delivered {
		t.Errorf("fast path carried %v, slow path %v; scheduler should prefer the fast path",
			mp.Subflows[0].Delivered, mp.Subflows[1].Delivered)
	}
	if mp.Reordered == 0 {
		t.Error("asymmetric RTTs with a shared sequence space should reorder at least once")
	}
	if mp.MaxReorderDepth <= 0 {
		t.Errorf("MaxReorderDepth = %d, want > 0", mp.MaxReorderDepth)
	}
}

// TestMPTCPLIAGentlerThanUncoupled: LIA's per-ACK increase is capped by
// the uncoupled 1/cwnd, so with loss-limited paths the coupled connection
// can not finish earlier (beyond float noise) and sends no more packets.
func TestMPTCPLIAGentlerThanUncoupled(t *testing.T) {
	links := []Link{
		{Rate: units.MbpsRate(10), OneWayDelay: 0.025, QueuePackets: 32},
		{Rate: units.MbpsRate(6), OneWayDelay: 0.045, QueuePackets: 32},
	}
	size := 16 * units.MB
	lia := runMP(t, MPConfig{Config: DefaultConfig(), Coupling: LIA}, links, size, 600)
	unc := runMP(t, MPConfig{Config: DefaultConfig(), Coupling: Uncoupled}, links, size, 600)
	if !lia.Completed || !unc.Completed {
		t.Fatalf("not completed: lia %+v unc %+v", lia, unc)
	}
	if lia.FinishedAt < unc.FinishedAt*(1-1e-9) {
		t.Errorf("LIA (%.3fs) finished before uncoupled (%.3fs); the coupled increase must not be more aggressive",
			lia.FinishedAt, unc.FinishedAt)
	}
}

// TestMPTCPHorizonCutsIncompleteTransfer mirrors the single-flow horizon
// test at the connection level.
func TestMPTCPHorizonCutsIncompleteTransfer(t *testing.T) {
	links := []Link{
		{Rate: units.MbpsRate(2), OneWayDelay: 0.05, QueuePackets: 32},
		{Rate: units.MbpsRate(2), OneWayDelay: 0.08, QueuePackets: 32},
	}
	mp := runMP(t, DefaultMPConfig(), links, 64*units.MB, 5)
	if mp.Completed {
		t.Fatal("64 MB over 2×2 Mbps cannot complete in 5s")
	}
	if mp.Delivered <= 0 || mp.Delivered >= 64*units.MB {
		t.Errorf("delivered %v, want partial progress", mp.Delivered)
	}
	if mp.FinishedAt != 0 {
		t.Errorf("FinishedAt = %v for an unfinished transfer", mp.FinishedAt)
	}
}

// TestMPTCPInvalidConfigPanics checks the validation contract.
func TestMPTCPInvalidConfigPanics(t *testing.T) {
	cases := map[string]func(){
		"no links": func() {
			RunMPTCP(sim.New(), DefaultMPConfig(), nil, units.MB)
		},
		"bad rate": func() {
			RunMPTCP(sim.New(), DefaultMPConfig(), []Link{{Rate: 0, QueuePackets: 1}}, units.MB)
		},
		"bad queue": func() {
			RunMPTCP(sim.New(), DefaultMPConfig(), []Link{{Rate: units.MbpsRate(1), OneWayDelay: 0.01}}, units.MB)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
}

// TestMPTCPDeterminism: identical inputs must give identical results —
// the scheduler, reorder buffer, and coupled increases are all
// deterministic.
func TestMPTCPDeterminism(t *testing.T) {
	links := []Link{
		{Rate: units.MbpsRate(10), OneWayDelay: 0.020, QueuePackets: 48},
		{Rate: units.MbpsRate(4), OneWayDelay: 0.070, QueuePackets: 48},
	}
	first := runMP(t, DefaultMPConfig(), links, 8*units.MB, 600)
	for i := 0; i < 3; i++ {
		again := runMP(t, DefaultMPConfig(), links, 8*units.MB, 600)
		if len(again.Subflows) != len(first.Subflows) {
			t.Fatalf("subflow count changed: %d vs %d", len(again.Subflows), len(first.Subflows))
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i, again, first)
		}
	}
}

// TestMPTCPSteadyStateAllocs: pooled connection state plus a Reset engine
// must make repeated multipath runs allocation-free.
func TestMPTCPSteadyStateAllocs(t *testing.T) {
	links := []Link{
		{Rate: units.MbpsRate(10), OneWayDelay: 0.020, QueuePackets: 64},
		{Rate: units.MbpsRate(6), OneWayDelay: 0.040, QueuePackets: 64},
	}
	eng := sim.New()
	run := func() {
		eng.Reset()
		eng.Horizon = 120
		r := RunMPTCP(eng, DefaultMPConfig(), links, 2*units.MB)
		if !r.Completed {
			t.Fatal("transfer did not complete")
		}
	}
	run() // warm the pool and grow every arena
	// The MPResult.Subflows slice is the one unavoidable per-run
	// allocation of the public API (the caller keeps it). Under -race the
	// connection pool drops Puts at random, so only a non-race build can
	// count allocations.
	if allocs := testing.AllocsPerRun(10, run); !raceEnabled && allocs > 2 {
		t.Errorf("steady-state RunMPTCP allocates %.0f times per run, want ≤ 2", allocs)
	}
}
