package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func lteRadio() *Radio {
	return NewRadio(LTE, GalaxyS3().Radios[LTE])
}

func wifiRadio() *Radio {
	return NewRadio(WiFi, GalaxyS3().Radios[WiFi])
}

func TestRadioStartsIdle(t *testing.T) {
	r := lteRadio()
	if r.State() != Idle {
		t.Errorf("initial state = %v, want IDLE", r.State())
	}
	if r.Energy() != 0 {
		t.Errorf("initial energy = %v, want 0", r.Energy())
	}
}

func TestActivateFromIdlePromotes(t *testing.T) {
	r := lteRadio()
	ready := r.Activate(10)
	if r.State() != Promotion {
		t.Errorf("state after Activate = %v, want PROMOTION", r.State())
	}
	if want := 10 + r.Params.PromoDur; ready != want {
		t.Errorf("readyAt = %v, want %v", ready, want)
	}
}

func TestPromotionEnergyCharged(t *testing.T) {
	r := lteRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	want := r.Params.PromoPower.Over(units.Duration(r.Params.PromoDur))
	if math.Abs(float64(r.Energy()-want)) > 1e-9 {
		t.Errorf("promotion energy = %v, want %v", r.Energy(), want)
	}
}

func TestFullCycleMatchesFixedOverhead(t *testing.T) {
	// Activate, transfer nothing, let the tail run out: total energy must
	// be exactly the Figure 1 fixed overhead.
	r := lteRadio()
	r.Activate(0)
	r.Drain()
	if r.State() != Idle {
		t.Errorf("state after Drain = %v, want IDLE", r.State())
	}
	want := r.Params.FixedOverhead()
	if math.Abs(float64(r.Energy()-want)) > 1e-6 {
		t.Errorf("cycle energy = %v, want fixed overhead %v", r.Energy(), want)
	}
}

func TestActiveTransferEnergy(t *testing.T) {
	r := wifiRadio() // no promotion: active immediately
	r.Activate(0)
	if r.State() != Active {
		t.Fatalf("WiFi should be active immediately, got %v", r.State())
	}
	r.Advance(10, units.MbpsRate(8), 0)
	want := r.Params.ActivePower(units.MbpsRate(8), 0).Over(units.Duration(10)) + r.Params.AssocEnergy
	if math.Abs(float64(r.Energy()-want)) > 1e-9 {
		t.Errorf("active energy = %v, want %v", r.Energy(), want)
	}
}

func TestAssocEnergyChargedOnce(t *testing.T) {
	r := wifiRadio()
	r.Activate(0)
	r.Advance(1, units.MbpsRate(1), 0)
	r.Advance(10, 0, 0) // tail out, back to idle
	if r.State() != Idle {
		t.Fatalf("expected idle, got %v", r.State())
	}
	e1 := r.Energy()
	r.Activate(10)
	e2 := r.Energy()
	if e2 != e1 {
		t.Errorf("second Activate charged association again: %v → %v", e1, e2)
	}
}

func TestTailReentry(t *testing.T) {
	// Activity during the tail snaps back to Active without a promotion.
	r := lteRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	r.Advance(ready+5, units.MbpsRate(5), 0) // transfer 5 s
	r.Advance(ready+7, 0, 0)                 // 2 s into the tail
	if r.State() != Tail {
		t.Fatalf("state = %v, want TAIL", r.State())
	}
	if got := r.Activate(ready + 7); got != ready+7 {
		t.Errorf("re-activation from tail should be immediate, got readyAt=%v", got)
	}
	if r.State() != Active {
		t.Errorf("state = %v, want ACTIVE", r.State())
	}
}

func TestTailExpiry(t *testing.T) {
	r := lteRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	r.Advance(ready+1, units.MbpsRate(5), 0)
	// Advance far past the tail.
	r.Advance(ready+1+r.Params.TailDur+10, 0, 0)
	if r.State() != Idle {
		t.Errorf("state = %v, want IDLE after tail expiry", r.State())
	}
	// Tail energy should be exactly TailPower × TailDur.
	tail := r.Params.TailPower.Over(units.Duration(r.Params.TailDur))
	promo := r.Params.PromoPower.Over(units.Duration(r.Params.PromoDur))
	active := r.Params.ActivePower(units.MbpsRate(5), 0).Over(units.Duration(1))
	want := promo + active + tail
	if math.Abs(float64(r.Energy()-want)) > 1e-9 {
		t.Errorf("total = %v, want %v", r.Energy(), want)
	}
}

func TestActivationDelay(t *testing.T) {
	r := lteRadio()
	if got := r.ActivationDelay(); got != r.Params.PromoDur {
		t.Errorf("idle activation delay = %v, want %v", got, r.Params.PromoDur)
	}
	r.Activate(0)
	r.Advance(0.1, 0, 0)
	if got := r.ActivationDelay(); math.Abs(got-(r.Params.PromoDur-0.1)) > 1e-12 {
		t.Errorf("mid-promotion delay = %v", got)
	}
	r.Advance(r.Params.PromoDur+0.1, units.MbpsRate(1), 0)
	if got := r.ActivationDelay(); got != 0 {
		t.Errorf("active delay = %v, want 0", got)
	}
}

func TestDataOnIdleRadioPanics(t *testing.T) {
	r := lteRadio()
	defer func() {
		if recover() == nil {
			t.Error("Advance with data on idle radio did not panic")
		}
	}()
	r.Advance(1, units.MbpsRate(1), 0)
}

func TestDataStraddlingPromotion(t *testing.T) {
	// A segment that starts during promotion and ends after it charges
	// promotion power first, then active power for the remainder; the
	// throughput applies only to the post-promotion part.
	r := lteRadio()
	r.Activate(0)
	end := r.Params.PromoDur + 1
	r.Advance(end, units.MbpsRate(5), 0)
	if r.State() != Active {
		t.Fatalf("state = %v, want ACTIVE", r.State())
	}
	want := r.Params.PromoPower.Over(units.Duration(r.Params.PromoDur)) +
		r.Params.ActivePower(units.MbpsRate(5), 0).Over(units.Duration(1))
	if math.Abs(float64(r.Energy()-want)) > 1e-9 {
		t.Errorf("energy = %v, want %v", r.Energy(), want)
	}
}

func TestBackwardsAdvancePanics(t *testing.T) {
	r := lteRadio()
	r.Advance(5, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("backwards Advance did not panic")
		}
	}()
	r.Advance(4, 0, 0)
}

func TestAccountantDeviceBase(t *testing.T) {
	a := NewAccountant(GalaxyS3())
	a.SetSessionActive(true)
	a.Advance(10, Throughputs{})
	want := a.Profile.DeviceBase.Over(units.Duration(10))
	if math.Abs(float64(a.Total()-want)) > 1e-9 {
		t.Errorf("base-only energy = %v, want %v", a.Total(), want)
	}
	a.SetSessionActive(false)
	a.Advance(20, Throughputs{})
	if math.Abs(float64(a.Total()-want)) > 1e-9 {
		t.Errorf("energy accrued while session inactive")
	}
}

func TestAccountantAggregates(t *testing.T) {
	a := NewAccountant(GalaxyS3())
	a.Radio(WiFi).Activate(0)
	ready := a.Radio(LTE).Activate(0)
	// WiFi transfers while LTE promotes.
	var wifiOnlyThr Throughputs
	wifiOnlyThr.Down[WiFi] = units.MbpsRate(5)
	a.Advance(ready, wifiOnlyThr)
	var thr Throughputs
	thr.Down[WiFi] = units.MbpsRate(5)
	thr.Down[LTE] = units.MbpsRate(3)
	a.Advance(ready+10, thr)
	sum := a.BaseEnergy()
	for i := 0; i < NumInterfaces; i++ {
		sum += a.InterfaceEnergy(Interface(i))
	}
	if math.Abs(float64(a.Total()-sum)) > 1e-12 {
		t.Errorf("Total %v != sum of parts %v", a.Total(), sum)
	}
	if a.InterfaceEnergy(Cell3G) != 0 {
		t.Error("unused 3G radio consumed energy")
	}
}

// TestAccountantTrace reads the accountant's cumulative-energy trace
// through Total after every Advance: it never decreases, and with the
// session active it grows on every step.
func TestAccountantTrace(t *testing.T) {
	a := NewAccountant(GalaxyS3())
	var last units.Energy
	a.SetSessionActive(true)
	for i := 1; i <= 10; i++ {
		a.Advance(float64(i), Throughputs{})
		if e := a.Total(); e <= last {
			t.Errorf("cumulative energy went from %v to %v at t=%d s", last, e, i)
		} else {
			last = e
		}
	}
}

func TestAccountantBackwardsPanics(t *testing.T) {
	a := NewAccountant(GalaxyS3())
	a.Advance(5, Throughputs{})
	defer func() {
		if recover() == nil {
			t.Error("backwards accountant Advance did not panic")
		}
	}()
	a.Advance(1, Throughputs{})
}

// Property: energy is additive over splits of an interval — advancing
// 0→t1→t2 equals advancing 0→t2 directly at the same throughput.
func TestRadioAdditivityProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8, mbpsRaw uint8) bool {
		t1 := float64(aRaw)/10 + 0.1
		t2 := t1 + float64(bRaw)/10 + 0.1
		mbps := units.MbpsRate(float64(mbpsRaw)/10 + 0.1)

		r1 := lteRadio()
		ready := r1.Activate(0)
		r1.Advance(ready, 0, 0)
		r1.Advance(ready+t1, mbps, 0)
		r1.Advance(ready+t2, mbps, 0)

		r2 := lteRadio()
		ready2 := r2.Activate(0)
		r2.Advance(ready2, 0, 0)
		r2.Advance(ready2+t2, mbps, 0)

		// Durations round to whole nanoseconds, so split intervals can
		// differ from the unsplit one by a few nJ.
		return math.Abs(float64(r1.Energy()-r2.Energy())) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy is monotone nondecreasing over any legal sequence of
// operations.
func TestRadioMonotoneProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		r := lteRadio()
		now := 0.0
		readyAt := math.Inf(1)
		last := units.Energy(0)
		for _, s := range steps {
			dt := float64(s%50)/10 + 0.05
			now += dt
			switch s % 3 {
			case 0:
				readyAt = r.Activate(now)
			case 1:
				r.Advance(now, 0, 0)
			case 2:
				// Only pass traffic when the radio can carry it:
				// advance idle first, then send over a short extra
				// interval if the radio is still up.
				r.Advance(now, 0, 0)
				if now >= readyAt && r.State() != Idle {
					now += 0.01
					r.Advance(now, units.MbpsRate(2), 0)
				}
			}
			if r.Energy() < last {
				return false
			}
			last = r.Energy()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RRC transitions are legal — from any observation the state is
// one of the four, and data never flows from IDLE.
func TestRRCStateStringAll(t *testing.T) {
	names := map[RRCState]string{Idle: "IDLE", Promotion: "PROMOTION", Active: "ACTIVE", Tail: "TAIL"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("state %d name = %q, want %q", s, s.String(), want)
		}
	}
	if RRCState(42).String() != "RRCState(42)" {
		t.Error("unknown state name wrong")
	}
}

func TestWeakSignalModel(t *testing.T) {
	params := GalaxyS3().Radios[WiFi]
	params.WeakSignalNominal = units.MbpsRate(12)
	params.WeakSignalPenalty = units.MilliwattPower(400)
	r := NewRadio(WiFi, params)
	r.Activate(0)
	// Full quality: no penalty.
	r.SetQuality(1)
	e1 := r.Advance(10, units.MbpsRate(2), 0)
	// Degraded channel at the same throughput: penalty applies.
	r.SetQuality(0.25)
	e2 := r.Advance(20, units.MbpsRate(2), 0)
	wantExtra := units.Power(float64(params.WeakSignalPenalty) * 0.75).Over(units.Duration(10))
	if math.Abs(float64(e2-e1-wantExtra)) > 1e-9 {
		t.Errorf("weak-signal extra = %v, want %v", e2-e1, wantExtra)
	}
	// Quality clamps.
	r.SetQuality(-3)
	if r.quality != 0 {
		t.Errorf("quality = %v, want clamp to 0", r.quality)
	}
	r.SetQuality(7)
	if r.quality != 1 {
		t.Errorf("quality = %v, want clamp to 1", r.quality)
	}
}

func TestWeakSignalDisabledByDefault(t *testing.T) {
	r := wifiRadio()
	r.Activate(0)
	r.SetQuality(0.1)
	e := r.Advance(10, units.MbpsRate(2), 0)
	want := r.Params.ActivePower(units.MbpsRate(2), 0).Over(units.Duration(10))
	if math.Abs(float64(e-want)) > 1e-9 {
		t.Errorf("default profile charged a weak-signal penalty: %v vs %v", e, want)
	}
}

// fach3GRadio returns a 3G radio with the Balasubramanian et al. [1]
// three-state machine enabled: DCH inactivity 5 s, FACH dwell 12 s at
// roughly half DCH power, carrying up to 100 Kbps.
func fach3GRadio() *Radio {
	p := GalaxyS3().Radios[Cell3G]
	p.TailDur = 5
	p.FACHDur = 12
	p.FACHPower = units.MilliwattPower(400)
	p.FACHRate = 100 * units.Kbps
	return NewRadio(Cell3G, p)
}

func TestFACHStateCycle(t *testing.T) {
	r := fach3GRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	r.Advance(ready+1, units.MbpsRate(1), 0) // DCH transfer
	// DCH inactivity: tail for 5 s, then FACH.
	r.Advance(ready+1+5, 0, 0)
	if r.State() != FACH {
		t.Fatalf("after DCH tail: state = %v, want FACH", r.State())
	}
	// FACH dwell expires 12 s later.
	r.Advance(ready+1+5+12, 0, 0)
	if r.State() != Idle {
		t.Fatalf("after FACH dwell: state = %v, want IDLE", r.State())
	}
	// Total fixed cost matches FixedOverhead.
	want := r.Params.FixedOverhead() +
		r.Params.ActivePower(units.MbpsRate(1), 0).Over(units.Duration(1))
	if math.Abs(float64(r.Energy()-want)) > 1e-6 {
		t.Errorf("cycle energy = %v, want %v", r.Energy(), want)
	}
}

func TestFACHCarriesLowRateTraffic(t *testing.T) {
	r := fach3GRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	r.Advance(ready+1, units.MbpsRate(1), 0)
	r.Advance(ready+6, 0, 0) // into FACH
	if r.State() != FACH {
		t.Fatalf("state = %v, want FACH", r.State())
	}
	before := r.Energy()
	// 50 Kbps fits in FACH: no re-promotion, flat FACH power.
	r.Advance(ready+8, 50*units.Kbps, 0)
	if r.State() != FACH {
		t.Errorf("low-rate traffic promoted out of FACH: %v", r.State())
	}
	got := r.Energy() - before
	want := r.Params.FACHPower.Over(units.Duration(2))
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("FACH transfer energy = %v, want %v", got, want)
	}
}

func TestFACHRepromotesOnHighRate(t *testing.T) {
	r := fach3GRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	r.Advance(ready+1, units.MbpsRate(1), 0)
	r.Advance(ready+6, 0, 0) // into FACH
	r.Advance(ready+7, units.MbpsRate(2), 0)
	if r.State() != Active {
		t.Errorf("2 Mbps demand should re-promote to DCH, state = %v", r.State())
	}
}

func TestFACHActivateSnapsToActive(t *testing.T) {
	r := fach3GRadio()
	ready := r.Activate(0)
	r.Advance(ready, 0, 0)
	r.Advance(ready+1, units.MbpsRate(1), 0)
	r.Advance(ready+6, 0, 0)
	if got := r.Activate(ready + 6); got != ready+6 {
		t.Errorf("Activate from FACH should be immediate, got %v", got)
	}
	if r.State() != Active {
		t.Errorf("state = %v, want ACTIVE", r.State())
	}
}

func TestFACHDrain(t *testing.T) {
	r := fach3GRadio()
	r.Activate(0)
	r.Drain()
	if r.State() != Idle {
		t.Fatalf("state after Drain = %v", r.State())
	}
	if math.Abs(float64(r.Energy()-r.Params.FixedOverhead())) > 1e-6 {
		t.Errorf("drained energy = %v, want fixed overhead %v", r.Energy(), r.Params.FixedOverhead())
	}
}

func TestBatteryFraction(t *testing.T) {
	d := GalaxyS3()
	if got := d.BatteryFraction(287); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("287 J on a 28.7 kJ battery = %v, want 1%%", got)
	}
	var empty DeviceProfile
	if empty.BatteryFraction(100) != 0 {
		t.Error("unknown capacity should report 0")
	}
}

func TestFACHStateName(t *testing.T) {
	if FACH.String() != "FACH" {
		t.Error("FACH name wrong")
	}
}
