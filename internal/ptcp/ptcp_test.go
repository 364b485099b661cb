package ptcp

import (
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/tcp"
	"repro/internal/units"
)

func bottleneck(mbps float64, rttSec float64) Link {
	return Link{
		Rate:         units.MbpsRate(mbps),
		OneWayDelay:  rttSec / 2,
		QueuePackets: 64,
	}
}

func TestLongFlowFillsThePipe(t *testing.T) {
	eng := sim.New()
	eng.Horizon = 300
	res := Run(eng, DefaultConfig(), bottleneck(10, 0.05), 16*units.MB)
	if !res.Completed {
		t.Fatalf("transfer incomplete: %+v", res)
	}
	ideal := units.MbpsRate(10).TimeToSend(16 * units.MB).Seconds()
	if res.FinishedAt < ideal {
		t.Fatalf("finished at %.2f s, below the physical bound %.2f s", res.FinishedAt, ideal)
	}
	if res.FinishedAt > ideal*1.4 {
		t.Errorf("finished at %.2f s; a healthy Reno flow should reach ≥70%% utilization (bound %.2f s)",
			res.FinishedAt, ideal)
	}
}

func TestSawtoothProducesFastRecoveries(t *testing.T) {
	// A window cap far above the BDP forces queue overflow and loss.
	eng := sim.New()
	eng.Horizon = 600
	res := Run(eng, DefaultConfig(), bottleneck(5, 0.04), 32*units.MB)
	if !res.Completed {
		t.Fatalf("transfer incomplete: %+v", res)
	}
	if res.FastRecoveries == 0 {
		t.Error("no fast recoveries on an overdriven bottleneck")
	}
	if res.Retransmits == 0 {
		t.Error("no retransmissions despite drops")
	}
}

func TestSmallTransferSlowStartOnly(t *testing.T) {
	// 64 KB = 45 segments completes within slow start: no losses, and
	// roughly log2(45/10)+1 ≈ 4 RTTs.
	eng := sim.New()
	eng.Horizon = 30
	res := Run(eng, DefaultConfig(), bottleneck(20, 0.1), 64*units.KB)
	if !res.Completed {
		t.Fatal("transfer incomplete")
	}
	if res.FastRecoveries != 0 || res.Timeouts != 0 {
		t.Errorf("small transfer saw loss events: %+v", res)
	}
	if res.FinishedAt > 1.0 {
		t.Errorf("64 KB took %.2f s at 20 Mbps/100 ms, want a few RTTs", res.FinishedAt)
	}
}

func TestPacketCountAccounting(t *testing.T) {
	eng := sim.New()
	eng.Horizon = 60
	size := units.ByteSize(1 * units.MB)
	res := Run(eng, DefaultConfig(), bottleneck(10, 0.05), size)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	minPkts := int(float64(size) / float64(DefaultConfig().MSS))
	if res.Packets < minPkts {
		t.Errorf("sent %d packets for %d segments", res.Packets, minPkts)
	}
	if res.Delivered != size {
		t.Errorf("delivered %v, want %v", res.Delivered, size)
	}
}

func TestHorizonCutsIncompleteTransfer(t *testing.T) {
	eng := sim.New()
	eng.Horizon = 1
	res := Run(eng, DefaultConfig(), bottleneck(1, 0.05), 64*units.MB)
	if res.Completed {
		t.Error("64 MB at 1 Mbps cannot finish in 1 s")
	}
	if res.Delivered <= 0 {
		t.Error("nothing delivered before the horizon")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid link did not panic")
		}
	}()
	Run(sim.New(), DefaultConfig(), Link{}, units.MB)
}

// Cross-model validation: the fluid-round model (internal/tcp) must agree
// with this packet-level reference on completion time across the rate/RTT
// grid the experiments use. This is the evidence behind DESIGN.md §4.1.
func TestFluidModelAgreesWithPacketModel(t *testing.T) {
	cases := []struct {
		mbps float64
		rtt  float64
		size units.ByteSize
	}{
		{10, 0.05, 16 * units.MB},
		{5, 0.04, 8 * units.MB},
		{20, 0.10, 16 * units.MB},
		{2, 0.07, 4 * units.MB},
		{12, 0.03, 32 * units.MB},
	}
	for _, c := range cases {
		// Packet model.
		engP := sim.New()
		engP.Horizon = 3600
		pres := Run(engP, DefaultConfig(), bottleneck(c.mbps, c.rtt), c.size)
		if !pres.Completed {
			t.Fatalf("packet model incomplete at %v Mbps", c.mbps)
		}

		// Fluid model (internal/tcp) on the same path.
		engF := sim.New()
		engF.Horizon = 3600
		src := simrng.New(1)
		path := &tcp.Path{
			Name:     "x",
			Capacity: link.NewConstant(units.MbpsRate(c.mbps)),
			BaseRTT:  c.rtt,
		}
		snk := &fluidSink{remaining: c.size, eng: engF}
		sf := tcp.NewSubflow("f", engF, src, path, tcp.DefaultConfig(), snk)
		sf.Connect(0)
		engF.Run()
		if snk.doneAt <= 0 {
			t.Fatalf("fluid model incomplete at %v Mbps", c.mbps)
		}

		ratio := snk.doneAt / pres.FinishedAt
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("%v Mbps / %v s RTT / %v: fluid %.2f s vs packet %.2f s (ratio %.2f, want 0.7–1.4)",
				c.mbps, c.rtt, c.size, snk.doneAt, pres.FinishedAt, ratio)
		}
	}
}

// fluidSink is a minimal DataSource for the fluid subflow.
type fluidSink struct {
	remaining units.ByteSize
	doneAt    float64
	eng       *sim.Engine
}

func (s *fluidSink) Request(sf *tcp.Subflow, max units.ByteSize) units.ByteSize {
	n := max
	if n > s.remaining {
		n = s.remaining
	}
	s.remaining -= n
	return n
}

func (s *fluidSink) Delivered(sf *tcp.Subflow, n units.ByteSize) {
	if s.remaining <= 0 && s.doneAt == 0 {
		s.doneAt = s.eng.Now()
		s.eng.Stop()
	}
}

func (s *fluidSink) Returned(sf *tcp.Subflow, n units.ByteSize) { s.remaining += n }
func (s *fluidSink) IncreasePerRTT(*tcp.Subflow) float64        { return 1 }

// TestPacketKernelSteadyStateAllocs locks in the §4.15 claim directly:
// after one warm-up run, repeated single-flow transfers on a Reset engine
// allocate nothing.
func TestPacketKernelSteadyStateAllocs(t *testing.T) {
	eng := sim.New()
	link := Link{Rate: units.MbpsRate(10), OneWayDelay: 0.025, QueuePackets: 64}
	run := func() {
		eng.Reset()
		eng.Horizon = 120
		if res := Run(eng, DefaultConfig(), link, 2*units.MB); !res.Completed {
			t.Fatal("transfer did not complete")
		}
	}
	run() // warm the pool and grow every arena
	// Under -race the flow pool drops Puts at random; the runs still
	// execute there, but only a non-race build can count allocations.
	if allocs := testing.AllocsPerRun(10, run); !raceEnabled && allocs > 0 {
		t.Errorf("steady-state Run allocates %.0f times per run, want 0", allocs)
	}
}
