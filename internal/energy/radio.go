package energy

import (
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/units"
)

// RRCState is a radio's position in the 3GPP-style power state machine
// described in §2.3 of the paper.
type RRCState int

// The radio states. An idle radio must be promoted (taking PromoDur, at
// PromoPower, during which no data can move) before it is Active; after
// activity stops it lingers in the Tail at TailPower for TailDur before
// demoting back to Idle. Activity during the tail returns it to Active
// with no new promotion.
const (
	Idle RRCState = iota
	Promotion
	Active
	Tail
	// FACH is the 3G shared-channel intermediate state (enabled by
	// RadioParams.FACH*): cheaper than DCH, able to carry low-rate
	// traffic, demoting to Idle after its own inactivity timer.
	FACH
)

// String names the state.
func (s RRCState) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case Promotion:
		return "PROMOTION"
	case Active:
		return "ACTIVE"
	case Tail:
		return "TAIL"
	case FACH:
		return "FACH"
	default:
		return fmt.Sprintf("RRCState(%d)", int(s))
	}
}

// Radio is one interface's RRC state machine and energy integrator. It is
// driven by Activate (requesting the radio for transfer) and Advance
// (integrating power over an elapsed interval at a known throughput).
type Radio struct {
	Iface  Interface
	Params RadioParams

	state      RRCState
	now        float64 // time the integrator has reached
	promoEnd   float64 // when the in-progress promotion completes
	tailEnd    float64 // when the in-progress tail expires
	fachEnd    float64 // when the in-progress FACH dwell expires
	associated bool    // whether AssocEnergy has been charged
	quality    float64 // link quality in [0,1] for the weak-signal model
	energy     units.Energy

	// Memoized float→Duration→float interval conversion for the
	// active-radio fast path: meter ticks repeat the same dt for long
	// stretches, and Power.Over's round-trip through time.Duration is
	// rounding-visible, so the converted seconds are cached by operand
	// (identical input bits give identical output bits).
	lastDt  float64
	lastSec float64

	rec        trace.Recorder
	stateSince float64 // integrator time the current state was entered
}

// SetRecorder attaches a trace recorder receiving one KindRadio event per
// RRC state transition (with the exited state's dwell time); nil disables.
func (r *Radio) SetRecorder(rec trace.Recorder) { r.rec = rec }

// setState transitions the state machine at the integrator's current
// time, emitting the trace event and restarting the dwell clock.
func (r *Radio) setState(s RRCState) {
	if s == r.state {
		return
	}
	if r.rec != nil {
		r.rec.Record(trace.Event{
			T: r.now, Kind: trace.KindRadio,
			Iface: r.Iface.String(), From: r.state.String(), To: s.String(),
			A: r.now - r.stateSince,
		})
	}
	r.state = s
	r.stateSince = r.now
}

// NewRadio returns an idle radio with the given parameters.
func NewRadio(iface Interface, params RadioParams) *Radio {
	return &Radio{Iface: iface, Params: params, quality: 1}
}

// Reset returns the radio to the state NewRadio builds for the given
// parameters, reusing the allocation (per-run state pooling).
func (r *Radio) Reset(iface Interface, params RadioParams) {
	*r = Radio{Iface: iface, Params: params, quality: 1}
}

// SetQuality records the link quality (capacity / nominal rate, clamped to
// [0,1]) used by the optional weak-signal power model. It has no effect
// unless the radio's parameters enable that model.
func (r *Radio) SetQuality(q float64) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	r.quality = q
}

// weakSignalPower returns the extra active power the weak-signal model
// adds at the current quality.
func (r *Radio) weakSignalPower() units.Power {
	if r.Params.WeakSignalNominal <= 0 || r.Params.WeakSignalPenalty <= 0 {
		return 0
	}
	return units.Power(float64(r.Params.WeakSignalPenalty) * (1 - r.quality))
}

// State returns the radio's state as of the last Advance/Activate call.
func (r *Radio) State() RRCState { return r.state }

// Energy returns the total energy the radio has consumed.
func (r *Radio) Energy() units.Energy { return r.energy }

// Activate requests the radio for data transfer at time t. It returns the
// time at which data can first flow: immediately when the radio is already
// Active or in the Tail (which snaps back to Active for free); after the
// promotion completes when it was Idle. The first activation also charges
// the association energy.
func (r *Radio) Activate(t float64) (readyAt float64) {
	r.advanceTo(t)
	if !r.associated {
		r.energy += r.Params.AssocEnergy
		r.associated = true
	}
	switch r.state {
	case Active:
		return t
	case Tail, FACH:
		r.setState(Active)
		return t
	case Promotion:
		return r.promoEnd
	default: // Idle
		if r.Params.PromoDur <= 0 {
			r.setState(Active)
			return t
		}
		r.setState(Promotion)
		r.promoEnd = t + r.Params.PromoDur
		return r.promoEnd
	}
}

// ActivationDelay returns how long an Activate at the current state would
// wait before data can flow, without changing any state.
func (r *Radio) ActivationDelay() float64 {
	switch r.state {
	case Idle:
		return r.Params.PromoDur
	case Promotion:
		return max(0, r.promoEnd-r.now)
	default:
		return 0
	}
}

// Advance integrates the radio's power from its current time to t,
// assuming the given constant downlink/uplink throughput over the whole
// interval, and returns the energy consumed during it. Throughput on a
// radio that is still Idle or in Promotion is a caller bug (data cannot
// flow yet) and panics.
func (r *Radio) Advance(t float64, down, up units.BitRate) units.Energy {
	if t < r.now {
		panic(fmt.Sprintf("energy: Radio.Advance going backwards: t=%v now=%v", t, r.now))
	}
	active := down > 0 || up > 0
	before := r.energy
	if active && r.state == Idle {
		panic("energy: data on an idle radio without Activate")
	}
	// Fast paths for the two overwhelmingly common meter ticks: a radio
	// sitting idle (only the dwell clock moves; no energy term exists to
	// add) and a radio staying active for the whole interval (exactly the
	// one power×duration addition the loop would perform). Both execute
	// the identical float operations in identical order as the general
	// loop, so the integrals stay bit-for-bit the same.
	if !active && r.state == Idle {
		if t > r.now {
			r.now = t
		}
		return 0
	}
	if active && r.state == Active {
		if t > r.now {
			p := r.Params.ActivePower(down, up) + r.weakSignalPower()
			// Identical to p.Over(units.Duration(dt)) with the
			// Duration→seconds conversion memoized by operand.
			if dt := t - r.now; dt != r.lastDt {
				r.lastDt = dt
				r.lastSec = units.Duration(dt).Seconds()
			}
			r.energy += units.Energy(float64(p) * r.lastSec)
			r.now = t
		}
		return r.energy - before
	}
	for r.now < t {
		switch r.state {
		case Idle:
			// No radio power while idle (platform power is the
			// accountant's DeviceBase).
			r.now = t
		case Promotion:
			end := min(t, r.promoEnd)
			r.energy += r.Params.PromoPower.Over(units.Duration(end - r.now))
			r.now = end
			if r.now >= r.promoEnd {
				if active {
					r.setState(Active)
				} else {
					// Promotion with nothing to send still pays the tail.
					r.startTail()
				}
			}
		case Active:
			if active {
				p := r.Params.ActivePower(down, up) + r.weakSignalPower()
				r.energy += p.Over(units.Duration(t - r.now))
				r.now = t
				continue
			}
			r.startTail()
		case Tail:
			if active {
				r.setState(Active)
				continue
			}
			end := min(t, r.tailEnd)
			r.energy += r.Params.TailPower.Over(units.Duration(end - r.now))
			r.now = end
			if r.now >= r.tailEnd {
				r.startFACHorIdle()
			}
		case FACH:
			if active && down+up > r.Params.FACHRate {
				// Demand beyond the shared channel re-promotes to DCH.
				r.setState(Active)
				continue
			}
			// FACH carries low-rate traffic at its own flat power and
			// otherwise dwells until its inactivity timer expires.
			end := t
			if !active {
				end = min(t, r.fachEnd)
			}
			r.energy += r.Params.FACHPower.Over(units.Duration(end - r.now))
			r.now = end
			if !active && r.now >= r.fachEnd {
				r.setState(Idle)
			}
			if active {
				// Activity extends the FACH dwell.
				r.fachEnd = r.now + r.Params.FACHDur
			}
		}
	}
	return r.energy - before
}

func (r *Radio) startTail() {
	if r.Params.TailDur <= 0 {
		r.startFACHorIdle()
		return
	}
	r.setState(Tail)
	r.tailEnd = r.now + r.Params.TailDur
}

// startFACHorIdle demotes past the DCH tail: into FACH when the radio
// models it, straight to Idle otherwise.
func (r *Radio) startFACHorIdle() {
	if r.Params.FACHDur <= 0 {
		r.setState(Idle)
		return
	}
	r.setState(FACH)
	r.fachEnd = r.now + r.Params.FACHDur
}

// advanceTo moves the integrator to t with no traffic.
func (r *Radio) advanceTo(t float64) {
	if t > r.now {
		r.Advance(t, 0, 0)
	}
}

// Drain advances the radio with no traffic until its tail (and promotion)
// has fully expired, charging the remaining fixed cost. Call at the end of
// a measurement so the tail energy after the last byte is accounted, as a
// hardware power monitor would record it.
func (r *Radio) Drain() {
	for r.state != Idle {
		switch r.state {
		case Promotion:
			r.Advance(r.promoEnd, 0, 0)
		case Active:
			// Kick into tail.
			r.Advance(math.Nextafter(r.now, math.Inf(1)), 0, 0)
		case Tail:
			r.Advance(r.tailEnd, 0, 0)
		case FACH:
			r.Advance(r.fachEnd, 0, 0)
		}
	}
}

// Throughputs carries per-interface downlink and uplink throughput
// vectors. The zero value means no traffic anywhere.
type Throughputs struct {
	Down [NumInterfaces]units.BitRate
	Up   [NumInterfaces]units.BitRate
}

// Active reports whether the interface carries traffic in either
// direction.
func (t Throughputs) Active(i Interface) bool {
	return t.Down[i] > 0 || t.Up[i] > 0
}

// Accountant integrates whole-device energy: the device base (while a
// session is marked in progress) plus each radio. It is the simulator's
// power monitor.
type Accountant struct {
	Profile *DeviceProfile

	radios    [NumInterfaces]*Radio
	now       float64
	base      units.Energy
	baseOn    bool
	extraBase units.Power

	// Memoized base-power increment: meter ticks integrate the same
	// constant power over the same interval for thousands of consecutive
	// calls, and Power.Over's float→Duration→float round-trip is
	// rounding-visible, so the exact increment is cached by operands
	// (identical inputs give identical bits) rather than recomputed.
	lastBaseP   units.Power
	lastBaseDt  float64
	lastBaseInc units.Energy
}

// NewAccountant returns an accountant for the given device with all radios
// idle and the device base off.
func NewAccountant(p *DeviceProfile) *Accountant {
	a := &Accountant{Profile: p}
	for i := 0; i < NumInterfaces; i++ {
		a.radios[i] = NewRadio(Interface(i), p.Radios[i])
	}
	return a
}

// Reset returns the accountant to the state NewAccountant builds for the
// given device, reusing the radio allocations (per-run state pooling).
func (a *Accountant) Reset(p *DeviceProfile) {
	a.Profile = p
	a.now = 0
	a.base = 0
	a.baseOn = false
	a.extraBase = 0
	a.lastBaseP, a.lastBaseDt, a.lastBaseInc = 0, 0, 0
	for i := 0; i < NumInterfaces; i++ {
		a.radios[i].Reset(Interface(i), p.Radios[i])
	}
}

// Radio returns the state machine for the given interface.
func (a *Accountant) Radio(i Interface) *Radio { return a.radios[i] }

// SetRecorder attaches a trace recorder to every radio, so each RRC
// state transition is recorded; nil disables.
func (a *Accountant) SetRecorder(rec trace.Recorder) {
	for i := 0; i < NumInterfaces; i++ {
		a.radios[i].SetRecorder(rec)
	}
}

// Now returns the time the integrator has reached.
func (a *Accountant) Now() float64 { return a.now }

// SetSessionActive turns the device-base charge on or off (a transfer
// session in progress keeps the platform awake). It must be called only at
// the integrator's current time boundary, i.e. after an Advance.
func (a *Accountant) SetSessionActive(on bool) { a.baseOn = on }

// SetExtraBase adds a constant application-level power draw (browser
// rendering, video decode, screen) charged alongside the device base while
// the session is active. The paper's web-browsing measurements include
// exactly such a component ("the power consumed for the Web browser
// application is included", §5.4).
func (a *Accountant) SetExtraBase(p units.Power) { a.extraBase = p }

// Advance integrates all power from the current time to t given constant
// per-interface downlink throughputs over the interval.
func (a *Accountant) Advance(t float64, thr Throughputs) {
	if t < a.now {
		panic(fmt.Sprintf("energy: Accountant.Advance going backwards: t=%v now=%v", t, a.now))
	}
	for i := 0; i < NumInterfaces; i++ {
		r := a.radios[i]
		down, up := thr.Down[i], thr.Up[i]
		if r.state == Idle && down <= 0 && up <= 0 {
			// Inline the idle fast path: most meter ticks advance two or
			// three idle radios, and the dwell clock is all that moves.
			if t > r.now {
				r.now = t
			}
			continue
		}
		if r.state == Active && (down > 0 || up > 0) {
			// Inline the staying-active fast path too (Radio.Advance is
			// too large to inline as a whole): the identical single
			// power×duration addition, with the same memoized interval
			// conversion.
			if t > r.now {
				p := r.Params.ActivePower(down, up) + r.weakSignalPower()
				if dt := t - r.now; dt != r.lastDt {
					r.lastDt = dt
					r.lastSec = units.Duration(dt).Seconds()
				}
				r.energy += units.Energy(float64(p) * r.lastSec)
				r.now = t
			}
			continue
		}
		r.Advance(t, down, up)
	}
	if a.baseOn {
		p := a.Profile.DeviceBase + a.extraBase
		if dt := t - a.now; p != a.lastBaseP || dt != a.lastBaseDt {
			a.lastBaseP, a.lastBaseDt = p, dt
			a.lastBaseInc = p.Over(units.Duration(dt))
		}
		a.base += a.lastBaseInc
	}
	a.now = t
}

// Drain expires all radio tails, charging their remaining fixed costs.
func (a *Accountant) Drain() {
	for i := 0; i < NumInterfaces; i++ {
		a.radios[i].Drain()
	}
}

// Total returns all energy consumed so far: device base plus every radio.
func (a *Accountant) Total() units.Energy {
	e := a.base
	for i := 0; i < NumInterfaces; i++ {
		e += a.radios[i].Energy()
	}
	return e
}

// BaseEnergy returns the device-base component alone.
func (a *Accountant) BaseEnergy() units.Energy { return a.base }

// InterfaceEnergy returns the energy consumed by one radio.
func (a *Accountant) InterfaceEnergy(i Interface) units.Energy {
	return a.radios[i].Energy()
}
