package link

import (
	"math"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
)

// rateChange is one step of a process's rate, seen by rateChanges.
type rateChange struct {
	at   float64
	rate units.BitRate
}

// rateChanges steps the engine until it stops and records every change
// of p's rate with the time it took effect.
func rateChanges(eng *sim.Engine, p Process) []rateChange {
	var out []rateChange
	last := p.Rate()
	for eng.Step() {
		if r := p.Rate(); r != last {
			out = append(out, rateChange{eng.Now(), r})
			last = r
		}
	}
	return out
}

func TestConstant(t *testing.T) {
	c := NewConstant(units.MbpsRate(10))
	if c.Rate() != units.MbpsRate(10) {
		t.Errorf("rate = %v", c.Rate())
	}
}

func TestOnOffModulatorAlternates(t *testing.T) {
	eng := sim.New()
	eng.Horizon = 2000
	src := simrng.New(42)
	m := NewOnOffModulator(eng, src, units.MbpsRate(10), units.MbpsRate(1), 40, true)
	if m.Rate() != units.MbpsRate(10) {
		t.Fatalf("initial rate = %v, want high", m.Rate())
	}
	rates := rateChanges(eng, m)
	if len(rates) < 10 {
		t.Fatalf("only %d toggles in 2000 s with mean hold 40 s", len(rates))
	}
	for i, c := range rates {
		wantHigh := i%2 == 1 // first change goes high→low, so odd indexes are high
		if wantHigh && c.rate != units.MbpsRate(10) || !wantHigh && c.rate != units.MbpsRate(1) {
			t.Fatalf("toggle %d = %v, not alternating", i, c.rate)
		}
	}
	// Mean holding time should be in the neighbourhood of 40 s:
	// ~2000/40 = 50 toggles expected.
	if len(rates) < 25 || len(rates) > 100 {
		t.Errorf("%d toggles in 2000 s, want ~50", len(rates))
	}
}

func TestOnOffModulatorStartLow(t *testing.T) {
	eng := sim.New()
	m := NewOnOffModulator(eng, simrng.New(1), units.MbpsRate(10), units.MbpsRate(1), 40, false)
	if m.Rate() != units.MbpsRate(1) {
		t.Errorf("initial rate = %v, want low", m.Rate())
	}
}

func TestContendedWiFiSharesChannel(t *testing.T) {
	eng := sim.New()
	eng.Horizon = 500
	c := NewContendedWiFi(eng, simrng.New(7), units.MbpsRate(12), 2, 0.05, 0.025)
	if c.Rate() != units.MbpsRate(12) {
		t.Fatalf("initial rate = %v, want full", c.Rate())
	}
	if c.LossProb() != 0 {
		t.Fatalf("initial loss = %v, want 0", c.LossProb())
	}
	sawShared, sawLoss := false, false
	for eng.Step() {
		r, k := c.Rate(), c.ActiveInterferers()
		want := units.BitRate(float64(units.MbpsRate(12)) * phy.ContentionShare(k))
		if math.Abs(float64(r-want)) > 1 {
			t.Fatalf("rate %v does not match %d active interferers", r, k)
		}
		if k > 0 {
			sawShared = true
			if c.LossProb() <= 0 {
				t.Fatal("active interferers should add loss")
			}
			sawLoss = true
		}
	}
	if !sawShared || !sawLoss {
		t.Error("interferers never became active in 500 s")
	}
}

func TestContendedWiFiZeroInterferers(t *testing.T) {
	eng := sim.New()
	eng.Horizon = 100
	c := NewContendedWiFi(eng, simrng.New(7), units.MbpsRate(12), 0, 0.05, 0.05)
	if got := rateChanges(eng, c); len(got) != 0 || c.Rate() != units.MbpsRate(12) {
		t.Errorf("no interferers: rate changed %v, now %v", got, c.Rate())
	}
}

func TestMobileWiFiFollowsRoute(t *testing.T) {
	eng := sim.New()
	route, ap := phy.UMassCSRoute()
	cell := phy.DefaultWiFiCell()
	eng.Horizon = route.Duration()
	m := NewMobileWiFi(eng, cell, route, ap)
	if m.Rate() <= 0 {
		t.Fatal("route starts near the AP; initial rate should be positive")
	}
	minRate, maxRate := m.Rate(), m.Rate()
	assocChanges := 0
	m.OnAssociationChange(func(bool) { assocChanges++ })
	for eng.Step() {
		minRate, maxRate = min(minRate, m.Rate()), max(maxRate, m.Rate())
	}
	if minRate != 0 {
		t.Errorf("min rate on route = %v, want 0 (out of range)", minRate)
	}
	if maxRate != cell.MaxGoodput {
		t.Errorf("max rate on route = %v, want %v", maxRate, cell.MaxGoodput)
	}
	if assocChanges == 0 {
		t.Error("route excursions should toggle association at least once")
	}
}

func TestTrace(t *testing.T) {
	eng := sim.New()
	tr := NewTrace(eng, []Breakpoint{
		{At: 0, Rate: units.MbpsRate(5)},
		{At: 10, Rate: units.MbpsRate(1)},
		{At: 20, Rate: units.MbpsRate(8)},
	})
	if tr.Rate() != units.MbpsRate(5) {
		t.Fatalf("initial = %v, want 5 Mbps", tr.Rate())
	}
	hist := rateChanges(eng, tr)
	if len(hist) != 2 || hist[0].at != 10 || hist[1].at != 20 {
		t.Errorf("changes = %v, want at [10 20]", hist)
	}
	if tr.Rate() != units.MbpsRate(8) {
		t.Errorf("final = %v, want 8 Mbps", tr.Rate())
	}
}

func TestTraceUnorderedPanics(t *testing.T) {
	eng := sim.New()
	defer func() {
		if recover() == nil {
			t.Error("unordered trace did not panic")
		}
	}()
	NewTrace(eng, []Breakpoint{{At: 10, Rate: 1}, {At: 5, Rate: 2}})
}

func TestSetClampsNegative(t *testing.T) {
	eng := sim.New()
	tr := NewTrace(eng, []Breakpoint{{At: 0, Rate: units.MbpsRate(5)}, {At: 1, Rate: -5}})
	eng.Run()
	if tr.Rate() != 0 {
		t.Errorf("negative rate should clamp to 0, got %v", tr.Rate())
	}
}

func TestModulatorDeterminism(t *testing.T) {
	run := func() []rateChange {
		eng := sim.New()
		eng.Horizon = 500
		m := NewOnOffModulator(eng, simrng.New(99), units.MbpsRate(10), units.MbpsRate(1), 40, true)
		return rateChanges(eng, m)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at toggle %d", i)
		}
	}
}

func TestMultiAPRoaming(t *testing.T) {
	eng := sim.New()
	route, _ := phy.UMassCSRoute()
	cell := phy.DefaultWiFiCell()
	// A second AP in the far wing covers the route's first excursion.
	aps := []phy.Point{{X: 0, Y: 0}, {X: 72, Y: 14}}
	m := NewMultiAPWiFi(eng, cell, route, aps)
	if m.CurrentAP() != 0 {
		t.Fatalf("start AP = %d, want the near one", m.CurrentAP())
	}
	apsSeen := map[int]bool{}
	assocDrops := 0
	m.OnAssociationChange(func(assoc bool) {
		if !assoc {
			assocDrops++
		}
	})
	eng.Tick(1, func() { apsSeen[m.CurrentAP()] = true })
	eng.Horizon = route.Duration()
	eng.Run()
	if !apsSeen[0] || !apsSeen[1] {
		t.Errorf("roaming never used both APs: %v", apsSeen)
	}
	if assocDrops == 0 {
		t.Error("handovers should drop the association briefly")
	}
}

func TestMultiAPCoverageBeatsSingleAP(t *testing.T) {
	route, ap := phy.UMassCSRoute()
	cell := phy.DefaultWiFiCell()
	usable := func(aps []phy.Point) float64 {
		eng := sim.New()
		var m Process
		if len(aps) == 1 {
			m = NewMobileWiFi(eng, cell, route, aps[0])
		} else {
			m = NewMultiAPWiFi(eng, cell, route, aps)
		}
		up := 0.0
		eng.Tick(1, func() {
			if m.Rate() > 0 {
				up++
			}
		})
		eng.Horizon = route.Duration()
		eng.Run()
		return up
	}
	single := usable([]phy.Point{ap})
	multi := usable([]phy.Point{ap, {X: 72, Y: 14}, {X: 35, Y: 25}})
	if multi <= single {
		t.Errorf("multi-AP usable seconds (%v) should exceed single AP (%v)", multi, single)
	}
}

func TestMultiAPNeedsAPs(t *testing.T) {
	eng := sim.New()
	route, _ := phy.UMassCSRoute()
	defer func() {
		if recover() == nil {
			t.Error("no APs did not panic")
		}
	}()
	NewMultiAPWiFi(eng, phy.DefaultWiFiCell(), route, nil)
}

// A toggle re-arms through a callback bound once at construction, so a
// warm modulator's or contended link's transitions allocate nothing.
func TestToggleSteadyStateAllocFree(t *testing.T) {
	for name, build := range map[string]func(*sim.Engine) Process{
		"OnOffModulator": func(eng *sim.Engine) Process {
			return NewOnOffModulator(eng, simrng.New(5), units.MbpsRate(10), units.MbpsRate(1), 0.5, true)
		},
		"ContendedWiFi": func(eng *sim.Engine) Process {
			return NewContendedWiFi(eng, simrng.New(5), units.MbpsRate(12), 3, 2, 1)
		},
	} {
		eng := sim.New()
		p := build(eng)
		for i := 0; i < 16; i++ {
			eng.Step()
		}
		before := eng.Now()
		if got := testing.AllocsPerRun(200, func() {
			if !eng.Step() {
				t.Fatal("toggle chain ended")
			}
		}); got != 0 {
			t.Errorf("%s: toggle and re-arm allocated %.1f times", name, got)
		}
		if eng.Now() == before || p.Rate() <= 0 {
			t.Errorf("%s: clock %v→%v, rate %v: the toggles did not run", name, before, eng.Now(), p.Rate())
		}
	}
}
