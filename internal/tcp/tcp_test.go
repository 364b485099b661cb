package tcp

import (
	"math"
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
)

// sink is a simple DataSource: a fixed download with uncoupled Reno.
type sink struct {
	remaining units.ByteSize
	delivered units.ByteSize
	doneAt    float64
	eng       *sim.Engine
}

func (s *sink) Request(sf *Subflow, max units.ByteSize) units.ByteSize {
	n := max
	if n > s.remaining {
		n = s.remaining
	}
	s.remaining -= n
	return n
}

func (s *sink) Delivered(sf *Subflow, n units.ByteSize) {
	s.delivered += n
	if s.remaining <= 0 && s.doneAt == 0 {
		s.doneAt = s.eng.Now()
	}
}

func (s *sink) Returned(sf *Subflow, n units.ByteSize) { s.remaining += n }

func (s *sink) IncreasePerRTT(*Subflow) float64 { return 1 }

func setup(t *testing.T, size units.ByteSize, rate units.BitRate, rttSec float64) (*sim.Engine, *sink, *Subflow) {
	t.Helper()
	eng := sim.New()
	src := simrng.New(1)
	path := &Path{Name: "test", Capacity: link.NewConstant(rate), BaseRTT: rttSec}
	s := &sink{remaining: size, eng: eng}
	sf := NewSubflow("sf0", eng, src, path, DefaultConfig(), s)
	return eng, s, sf
}

func TestHandshake(t *testing.T) {
	eng, _, sf := setup(t, 0, units.MbpsRate(10), 0.05)
	established := false
	sf.OnEstablished = func(x *Subflow) {
		established = true
		if x.HandshakeRTT <= 0 {
			t.Error("handshake RTT not recorded")
		}
		if got := eng.Now(); math.Abs(got-x.HandshakeRTT) > 1e-9 {
			t.Errorf("established at %v, want handshake RTT %v", got, x.HandshakeRTT)
		}
	}
	sf.Connect(0)
	if sf.State() != Connecting {
		t.Fatalf("state = %v, want CONNECTING", sf.State())
	}
	eng.Run()
	if !established || sf.State() != Established {
		t.Fatal("handshake did not complete")
	}
}

func TestConnectExtraDelay(t *testing.T) {
	eng, _, sf := setup(t, 0, units.MbpsRate(10), 0.05)
	sf.OnEstablished = func(x *Subflow) {
		if eng.Now() < 2.0 {
			t.Errorf("established at %v, want ≥ 2 (promotion delay)", eng.Now())
		}
	}
	sf.Connect(2.0)
	eng.Run()
}

func TestDoubleConnectPanics(t *testing.T) {
	_, _, sf := setup(t, 0, units.MbpsRate(10), 0.05)
	sf.Connect(0)
	defer func() {
		if recover() == nil {
			t.Error("double Connect did not panic")
		}
	}()
	sf.Connect(0)
}

func TestDownloadCompletesAtLinkRate(t *testing.T) {
	// 16 MB over a 10 Mbps, 50 ms link: ideal time ≈ 13.4 s; with slow
	// start and jitter allow 12–25 s.
	size := 16 * units.MB
	eng, s, sf := setup(t, size, units.MbpsRate(10), 0.05)
	sf.Connect(0)
	eng.Horizon = 300
	eng.Run()
	if s.delivered != size {
		t.Fatalf("delivered %v of %v", s.delivered, size)
	}
	ideal := units.MbpsRate(10).TimeToSend(size).Seconds()
	if s.doneAt < ideal*0.9 || s.doneAt > ideal*2 {
		t.Errorf("download took %v s, ideal %v s", s.doneAt, ideal)
	}
}

func TestSlowStartRamp(t *testing.T) {
	eng, _, sf := setup(t, 64*units.MB, units.MbpsRate(50), 0.05)
	sf.Connect(0)
	// After establishment + a few rounds, cwnd should have grown
	// geometrically from IW.
	eng.RunUntil(0.05 + 4*0.06) // handshake + ~4 rounds
	if sf.Cwnd() < 40 {
		t.Errorf("cwnd after ~4 rounds = %v, want ≥ 40 (slow start doubling from 10)", sf.Cwnd())
	}
}

func TestSawtoothOnConstrainedLink(t *testing.T) {
	// On a link much slower than the window cap, cwnd must experience
	// loss-driven halvings (the AIMD sawtooth).
	eng, _, sf := setup(t, 64*units.MB, units.MbpsRate(5), 0.04)
	sf.Connect(0)
	eng.Horizon = 60
	eng.Run()
	if sf.Losses == 0 {
		t.Error("no loss events on a constrained link in 60 s")
	}
	if sf.Rounds < 100 {
		t.Errorf("only %d rounds in 60 s at 40 ms RTT", sf.Rounds)
	}
}

func TestThroughputTracksCapacity(t *testing.T) {
	eng, s, sf := setup(t, 256*units.MB, units.MbpsRate(8), 0.05)
	sf.Connect(0)
	eng.RunUntil(30)
	// Delivered bytes over 30 s should approximate the link rate.
	gotMbps := s.delivered.Bits() / 30 / 1e6
	if gotMbps < 5.5 || gotMbps > 8.5 {
		t.Errorf("goodput = %.2f Mbps on an 8 Mbps link", gotMbps)
	}
	thr := sf.Throughput()
	if thr <= 0 || thr > units.MbpsRate(9) {
		t.Errorf("instantaneous throughput = %v", thr)
	}
}

func TestSuspendStopsTransfer(t *testing.T) {
	eng, s, sf := setup(t, 256*units.MB, units.MbpsRate(10), 0.05)
	sf.Connect(0)
	eng.RunUntil(10)
	sf.Suspend()
	if !sf.Suspended() {
		t.Fatal("Suspended() = false after Suspend")
	}
	eng.RunUntil(11) // let the in-flight round finish
	at := s.delivered
	eng.RunUntil(30)
	if s.delivered != at {
		t.Errorf("suspended subflow delivered %v more bytes", s.delivered-at)
	}
}

func TestResumeWithCwndReset(t *testing.T) {
	eng, _, sf := setup(t, 256*units.MB, units.MbpsRate(10), 0.05)
	sf.Connect(0)
	eng.RunUntil(10)
	sf.Suspend()
	eng.RunUntil(11)
	grown := sf.Cwnd()
	if grown <= DefaultConfig().InitialWindow {
		t.Fatalf("cwnd did not grow before suspension: %v", grown)
	}
	eng.RunUntil(30) // idle well past the RTO
	sf.Resume()
	if sf.Cwnd() != DefaultConfig().InitialWindow {
		t.Errorf("cwnd after idle resume = %v, want reset to IW (RFC 2861)", sf.Cwnd())
	}
}

func TestResumeWithoutCwndReset(t *testing.T) {
	// eMPTCP's fast-reuse: DisableIdleCwndReset keeps the window.
	eng := sim.New()
	src := simrng.New(1)
	path := &Path{Name: "test", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	s := &sink{remaining: 256 * units.MB, eng: eng}
	cfg := DefaultConfig()
	cfg.DisableIdleCwndReset = true
	sf := NewSubflow("sf0", eng, src, path, cfg, s)
	sf.Connect(0)
	eng.RunUntil(10)
	sf.Suspend()
	eng.RunUntil(11)
	grown := sf.Cwnd()
	eng.RunUntil(30)
	sf.Resume()
	if sf.Cwnd() != grown {
		t.Errorf("cwnd after fast-reuse resume = %v, want preserved %v", sf.Cwnd(), grown)
	}
}

func TestDeadPathTimeoutAndReturn(t *testing.T) {
	eng := sim.New()
	src := simrng.New(3)
	// Capacity drops to zero at t=5 and recovers at t=20.
	cap := link.NewTrace(eng, []link.Breakpoint{
		{At: 0, Rate: units.MbpsRate(10)},
		{At: 5, Rate: 0},
		{At: 20, Rate: units.MbpsRate(10)},
	})
	path := &Path{Name: "flaky", Capacity: cap, BaseRTT: 0.05}
	s := &sink{remaining: 256 * units.MB, eng: eng}
	sf := NewSubflow("sf0", eng, src, path, DefaultConfig(), s)
	sf.Connect(0)
	eng.RunUntil(19)
	at := s.delivered
	losses := sf.Losses
	if losses == 0 {
		t.Error("dead path produced no timeout losses")
	}
	eng.RunUntil(40)
	if s.delivered <= at {
		t.Error("transfer did not recover after capacity returned")
	}
	// After recovery, cwnd restarted from IW (timeout), so it must have
	// been growing again.
	if sf.Cwnd() <= 1 {
		t.Errorf("cwnd after recovery = %v", sf.Cwnd())
	}
}

func TestFairShareBetweenSubflows(t *testing.T) {
	eng := sim.New()
	src := simrng.New(4)
	path := &Path{Name: "shared", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	s1 := &sink{remaining: 256 * units.MB, eng: eng}
	s2 := &sink{remaining: 256 * units.MB, eng: eng}
	sf1 := NewSubflow("a", eng, src.Split(1), path, DefaultConfig(), s1)
	sf2 := NewSubflow("b", eng, src.Split(2), path, DefaultConfig(), s2)
	sf1.Connect(0)
	sf2.Connect(0)
	eng.RunUntil(60)
	d1, d2 := float64(s1.delivered), float64(s2.delivered)
	total := (d1 + d2) * 8 / 60 / 1e6
	if total < 7 || total > 11 {
		t.Errorf("aggregate goodput = %.2f Mbps on a 10 Mbps link", total)
	}
	ratio := d1 / d2
	if ratio < 0.6 || ratio > 1.67 {
		t.Errorf("unfair split: %.0f vs %.0f bytes (ratio %.2f)", d1, d2, ratio)
	}
}

func TestIdleSubflowKick(t *testing.T) {
	eng := sim.New()
	src := simrng.New(5)
	path := &Path{Name: "p", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	s := &sink{remaining: 0, eng: eng} // nothing to send yet
	sf := NewSubflow("sf0", eng, src, path, DefaultConfig(), s)
	sf.Connect(0)
	eng.RunUntil(5)
	if s.delivered != 0 {
		t.Fatal("idle subflow delivered data")
	}
	// New data arrives; kick the subflow.
	s.remaining = units.MB
	sf.Kick()
	eng.RunUntil(30)
	if s.delivered != units.MB {
		t.Errorf("delivered %v after kick, want 1 MB", s.delivered)
	}
}

// lossyLink is a capacity whose per-packet random loss probability
// is whatever loss returns.
type lossyLink struct {
	link.Process
	loss func() float64
}

func (l lossyLink) LossProb() float64 { return l.loss() }

func TestLossyPathLowersGoodput(t *testing.T) {
	run := func(loss float64) units.ByteSize {
		eng := sim.New()
		src := simrng.New(6)
		path := &Path{
			Name:     "lossy",
			Capacity: lossyLink{link.NewConstant(units.MbpsRate(10)), func() float64 { return loss }},
			BaseRTT:  0.05,
		}
		s := &sink{remaining: 256 * units.MB, eng: eng}
		sf := NewSubflow("sf0", eng, src, path, DefaultConfig(), s)
		sf.Connect(0)
		eng.RunUntil(30)
		return s.delivered
	}
	clean := run(0)
	lossy := run(0.02)
	if lossy >= clean {
		t.Errorf("2%% loss should lower goodput: clean=%v lossy=%v", clean, lossy)
	}
}

func TestBadConfigPanics(t *testing.T) {
	eng := sim.New()
	path := &Path{Name: "p", Capacity: link.NewConstant(1), BaseRTT: 0.05}
	bad := DefaultConfig()
	bad.MSS = 0
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	NewSubflow("x", eng, simrng.New(1), path, bad, &sink{eng: eng})
}

func TestStateString(t *testing.T) {
	if Closed.String() != "CLOSED" || Connecting.String() != "CONNECTING" || Established.String() != "ESTABLISHED" {
		t.Error("state names wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state name wrong")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (units.ByteSize, float64) {
		eng, s, sf := setup(t, 16*units.MB, units.MbpsRate(10), 0.05)
		sf.Connect(0)
		eng.Horizon = 120
		eng.Run()
		return s.delivered, s.doneAt
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Errorf("runs differ: (%v,%v) vs (%v,%v)", d1, t1, d2, t2)
	}
}
