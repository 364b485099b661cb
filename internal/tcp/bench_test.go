package tcp

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/trace"
	"repro/internal/units"
)

// benchSink feeds a subflow endlessly.
type benchSink struct{}

func (benchSink) Request(sf *Subflow, max units.ByteSize) units.ByteSize { return max }
func (benchSink) Delivered(*Subflow, units.ByteSize)                     {}
func (benchSink) Returned(*Subflow, units.ByteSize)                      {}
func (benchSink) IncreasePerRTT(*Subflow) float64                        { return 1 }

// meteredSink feeds a subflow endlessly and charges every delivery to an
// energy accountant, the way scenario's meter does — so the benchmarks
// and alloc guards cover the per-round energy integration (Radio.Advance
// active fast path, memoized base power) inside a coalesced batch.
type meteredSink struct {
	eng  *sim.Engine
	acct *energy.Accountant
	last float64
}

func newMeteredSink(eng *sim.Engine) *meteredSink {
	m := &meteredSink{eng: eng, acct: energy.NewAccountant(energy.GalaxyS3())}
	m.acct.Radio(energy.WiFi).Activate(0)
	return m
}

func (m *meteredSink) Request(sf *Subflow, max units.ByteSize) units.ByteSize { return max }

func (m *meteredSink) Delivered(sf *Subflow, n units.ByteSize) {
	now := m.eng.Now()
	if dt := now - m.last; dt > 0 {
		var thr energy.Throughputs
		thr.Down[energy.WiFi] = units.BitRate(n.Bits() / dt)
		m.acct.Advance(now, thr)
		m.last = now
	}
}

func (m *meteredSink) Returned(*Subflow, units.ByteSize) {}
func (m *meteredSink) IncreasePerRTT(*Subflow) float64   { return 1 }

// BenchmarkSubflowRounds measures the fluid model's cost per simulated
// transmission round.
func BenchmarkSubflowRounds(b *testing.B) {
	eng := sim.New()
	path := &Path{Name: "b", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	sf := NewSubflow("b", eng, simrng.New(1), path, DefaultConfig(), benchSink{})
	sf.Connect(0)
	b.ResetTimer()
	for sf.Rounds < b.N {
		if !eng.Step() {
			b.Fatal("engine drained")
		}
	}
	b.ReportMetric(float64(sf.Rounds)/float64(b.N), "rounds/op")
}

// BenchmarkSubflowRoundsTraced is BenchmarkSubflowRounds with a full
// recorder attached (every kind, kernel events included): a traced round
// must stay allocation-free too.
func BenchmarkSubflowRoundsTraced(b *testing.B) {
	eng := sim.New()
	eng.SetRecorder(trace.NewJSONL(trace.AllKinds, 1024))
	path := &Path{Name: "b", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	sf := NewSubflow("b", eng, simrng.New(1), path, DefaultConfig(), benchSink{})
	sf.Connect(0)
	b.ResetTimer()
	for sf.Rounds < b.N {
		if !eng.Step() {
			b.Fatal("engine drained")
		}
	}
	b.ReportMetric(float64(sf.Rounds)/float64(b.N), "rounds/op")
}

// BenchmarkSubflowRoundsMetered adds the per-delivery energy-meter work
// to the round loop: the Accountant's staying-active fast path and
// memoized base-power integration must not slow (or re-allocate in) the
// coalesced batch.
func BenchmarkSubflowRoundsMetered(b *testing.B) {
	eng := sim.New()
	path := &Path{Name: "b", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	sf := NewSubflow("b", eng, simrng.New(1), path, DefaultConfig(), newMeteredSink(eng))
	sf.Connect(0)
	b.ResetTimer()
	for sf.Rounds < b.N {
		if !eng.Step() {
			b.Fatal("engine drained")
		}
	}
	b.ReportMetric(float64(sf.Rounds)/float64(b.N), "rounds/op")
}

// runRounds steps the engine until the subflow completes n more rounds.
func runRounds(tb testing.TB, eng *sim.Engine, sf *Subflow, n int) {
	target := sf.Rounds + n
	for sf.Rounds < target {
		if !eng.Step() {
			tb.Fatal("engine drained")
		}
	}
}

// TestSubflowRoundSteadyStateAllocFree is the CI alloc guard for the
// fluid TCP model: once established, simulating rounds — plain, under a
// full trace recorder, and on a lossy path whose loss probability keeps
// changing, so the loss decision rebuilds its constants — performs zero
// heap allocations.
func TestSubflowRoundSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		traced   bool
		metered  bool
		lossy    bool
		batchCap int
	}{
		{"plain-unbatched", false, false, false, 0},
		{"plain-batched", false, false, false, 64},
		{"traced-unbatched", true, false, false, 0},
		{"traced-batched", true, false, false, 64},
		{"metered-batched", false, true, false, 64},
		{"lossy-batched", false, false, true, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := SetMaxBatchRounds(tc.batchCap)
			defer restore()
			eng := sim.New()
			if tc.traced {
				rec := trace.NewJSONL(trace.AllKinds, 64)
				// Fill the ring first so Record overwrites instead of
				// appending.
				for i := 0; i < 64; i++ {
					rec.Record(trace.Event{Kind: trace.KindFire})
				}
				eng.SetRecorder(rec)
			}
			path := &Path{Name: "g", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
			flips := 0
			if tc.lossy {
				// The probability flips every 7 rounds between two
				// collision-loss levels.
				lps := [2]float64{0.016, 0.048}
				calls := 0
				path.Capacity = lossyLink{path.Capacity, func() float64 {
					calls++
					if calls%7 == 0 {
						flips++
					}
					return lps[calls/7%2]
				}}
			}
			var src DataSource = benchSink{}
			if tc.metered {
				src = newMeteredSink(eng)
			}
			sf := NewSubflow("g", eng, simrng.New(1), path, DefaultConfig(), src)
			sf.Connect(0)
			runRounds(t, eng, sf, 256) // warm up: handshake, round record, heap growth
			if got := testing.AllocsPerRun(100, func() {
				runRounds(t, eng, sf, maxBatchRounds+1) // at least one full batch
			}); got != 0 {
				t.Fatalf("steady-state round allocated %.1f times", got)
			}
			if tc.lossy && (path.loss == nil || flips < 100) {
				t.Fatalf("lossy path flipped its loss probability %d times (constants built: %v)", flips, path.loss != nil)
			}
		})
	}
}
