// Package link provides the time-varying bandwidth processes that drive
// the paper's experiments: constant links (§4.2), the exponential on-off
// WiFi modulation of §4.3, Markov on-off background interferers (§4.4),
// and the mobility-driven WiFi trace of §4.5. Each process plugs into the
// discrete-event engine and exposes a piecewise-constant available
// bandwidth.
package link

import (
	"math"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
)

// Process is a piecewise-constant available-bandwidth process. Rate
// returns the current value; readers sample it when they need it.
type Process interface {
	Rate() units.BitRate
}

// LossProcess optionally augments a Process with a random packet-loss
// probability (contention collisions).
type LossProcess interface {
	Process
	LossProb() float64
}

// base holds the current rate shared by all processes.
type base struct {
	rate units.BitRate
}

func (b *base) Rate() units.BitRate { return b.rate }

func (b *base) set(r units.BitRate) {
	if r < 0 {
		r = 0
	}
	b.rate = r
}

// Constant is a fixed-rate process.
type Constant struct{ base }

// NewConstant returns a process pinned at rate.
func NewConstant(rate units.BitRate) *Constant {
	c := &Constant{}
	c.rate = rate
	return c
}

// OnOffModulator drives a link between a high and a low rate with
// exponentially distributed holding times, reproducing §4.3's setup: "WiFi
// link bandwidth is modulated by a two state on-off process with
// exponentially distributed times spent in the on or off state with a mean
// of 40 seconds. The bandwidth provided by the AP is ≤1 Mbps or ≥10 Mbps."
type OnOffModulator struct {
	base
	eng    *sim.Engine
	proc   *simrng.OnOff
	high   units.BitRate
	low    units.BitRate
	toggle func() // pre-bound onToggle: toggling allocates nothing per transition
}

// NewOnOffModulator starts a modulator on the engine. startHigh selects
// the initial state; meanHold is the mean holding time in seconds for both
// states.
func NewOnOffModulator(eng *sim.Engine, src *simrng.Source, high, low units.BitRate, meanHold float64, startHigh bool) *OnOffModulator {
	m := &OnOffModulator{
		eng:  eng,
		proc: simrng.NewOnOff(src, meanHold, meanHold, startHigh),
		high: high,
		low:  low,
	}
	if startHigh {
		m.rate = high
	} else {
		m.rate = low
	}
	m.toggle = m.onToggle
	m.scheduleToggle()
	return m
}

func (m *OnOffModulator) onToggle() {
	if m.proc.On() {
		m.set(m.high)
	} else {
		m.set(m.low)
	}
	m.scheduleToggle()
}

func (m *OnOffModulator) scheduleToggle() {
	hold := m.proc.NextToggle()
	if math.IsInf(hold, 1) {
		return
	}
	m.eng.After(hold, m.toggle)
}

// Interferer is one background WiFi node generating UDP traffic according
// to a two-state Markov on-off process with rates λon (leaving off) and
// λoff (leaving on), per §4.4.
type Interferer struct {
	proc   *simrng.OnOff
	active bool
	toggle func() // bound once at construction; armed per transition
}

// ContendedWiFi models the device's WiFi link under channel contention
// from n interferers sharing the same channel. While k interferers are
// actively transmitting, the device's share of the base goodput is
// 1/(k+1) and collisions add packet loss.
type ContendedWiFi struct {
	base
	eng         *sim.Engine
	baseRate    units.BitRate
	interferers []*Interferer
	lossProb    float64
}

// NewContendedWiFi starts n interferers on the engine with the given
// Markov rates. All interferers start silent.
func NewContendedWiFi(eng *sim.Engine, src *simrng.Source, baseRate units.BitRate, n int, lambdaOn, lambdaOff float64) *ContendedWiFi {
	c := &ContendedWiFi{eng: eng, baseRate: baseRate}
	c.rate = baseRate
	for i := 0; i < n; i++ {
		iv := &Interferer{proc: simrng.NewOnOffRates(src.Split(uint64(i)+1), lambdaOn, lambdaOff, false)}
		iv.toggle = func() {
			iv.active = iv.proc.On()
			c.recompute()
			c.scheduleToggle(iv)
		}
		c.interferers = append(c.interferers, iv)
		c.scheduleToggle(iv)
	}
	return c
}

func (c *ContendedWiFi) scheduleToggle(iv *Interferer) {
	hold := iv.proc.NextToggle()
	if math.IsInf(hold, 1) {
		return
	}
	c.eng.After(hold, iv.toggle)
}

func (c *ContendedWiFi) recompute() {
	k := 0
	for _, iv := range c.interferers {
		if iv.active {
			k++
		}
	}
	c.lossProb = phy.CollisionLossProb(k)
	c.set(units.BitRate(float64(c.baseRate) * phy.ContentionShare(k)))
}

// LossProb returns the current collision-loss probability.
func (c *ContendedWiFi) LossProb() float64 { return c.lossProb }

// ActiveInterferers returns how many interferers are currently on.
func (c *ContendedWiFi) ActiveInterferers() int {
	k := 0
	for _, iv := range c.interferers {
		if iv.active {
			k++
		}
	}
	return k
}

// MobileWiFi samples a walker's position along a route once a second and
// sets the WiFi rate from the cell's distance–goodput curve, reproducing
// the §4.5 mobile scenario. It also tracks association so baselines like
// "MPTCP with WiFi First" can react to disassociation events.
type MobileWiFi struct {
	base
	cell       phy.WiFiCell
	route      *phy.Route
	ap         phy.Point
	associated bool
	assocObs   []func(bool)
}

// SampleInterval is how often MobileWiFi re-evaluates the walker position.
const SampleInterval = 1.0

// NewMobileWiFi starts the mobility process on the engine.
func NewMobileWiFi(eng *sim.Engine, cell phy.WiFiCell, route *phy.Route, ap phy.Point) *MobileWiFi {
	m := &MobileWiFi{cell: cell, route: route, ap: ap}
	d := route.PositionAt(0).Dist(ap)
	m.rate = cell.GoodputAt(d)
	m.associated = cell.Associated(d)
	eng.Tick(SampleInterval, func() { m.sample(eng.Now()) })
	return m
}

func (m *MobileWiFi) sample(t float64) {
	d := m.route.PositionAt(t).Dist(m.ap)
	assoc := m.cell.Associated(d)
	if assoc != m.associated {
		m.associated = assoc
		for _, fn := range m.assocObs {
			fn(assoc)
		}
	}
	m.set(m.cell.GoodputAt(d))
}

// Associated reports whether the device currently holds its association.
func (m *MobileWiFi) Associated() bool { return m.associated }

// OnAssociationChange registers a callback fired when association is
// gained or lost.
func (m *MobileWiFi) OnAssociationChange(fn func(bool)) {
	m.assocObs = append(m.assocObs, fn)
}

// Trace replays an explicit piecewise-constant schedule of (time, rate)
// breakpoints, useful for deterministic tests and custom scenarios.
type Trace struct {
	base
	pts  []Breakpoint
	next int
}

// Breakpoint is one step of a Trace.
type Breakpoint struct {
	At   float64
	Rate units.BitRate
}

// NewTrace schedules the breakpoints on the engine. Breakpoints must be
// time-ordered; the first one at time 0 (or the zero rate) defines the
// initial value.
func NewTrace(eng *sim.Engine, points []Breakpoint) *Trace {
	tr := &Trace{}
	start := 0
	if len(points) > 0 && points[0].At <= 0 {
		tr.rate = points[0].Rate
		start = 1
	}
	// One shared advance callback walks the breakpoint slice in order.
	// Same-time breakpoints fire FIFO (the kernel's seq tie-break follows
	// Schedule order), so the cursor always lines up with the firing event.
	tr.pts = points[start:]
	advance := func() {
		p := tr.pts[tr.next]
		tr.next++
		tr.set(p.Rate)
	}
	last := 0.0
	for _, p := range tr.pts {
		if p.At < last {
			panic("link: trace breakpoints must be time-ordered")
		}
		last = p.At
		eng.Schedule(p.At, advance)
	}
	return tr
}

// MultiAPWiFi models a walker roaming across several access points of the
// same ESS (the §6 Croitoru et al. setting): the device associates with
// the AP offering the best goodput, subject to a roaming hysteresis, and
// each re-association costs a handover gap during which the WiFi link is
// down. Association events are exposed exactly like MobileWiFi's, so the
// WiFi-First and Single-Path baselines react to handovers.
type MultiAPWiFi struct {
	base
	cell  phy.WiFiCell
	route *phy.Route
	aps   []phy.Point

	// RoamMargin is how much better (multiplicatively) a candidate AP's
	// goodput must be before the device roams to it.
	RoamMargin float64
	// HandoverGap is the re-association outage in seconds.
	HandoverGap float64

	current     int
	associated  bool
	inHandover  bool
	handoverEnd float64
	assocObs    []func(bool)
}

// NewMultiAPWiFi starts the roaming process on the engine. At least one AP
// is required; the walker starts associated to the best one.
func NewMultiAPWiFi(eng *sim.Engine, cell phy.WiFiCell, route *phy.Route, aps []phy.Point) *MultiAPWiFi {
	if len(aps) == 0 {
		panic("link: MultiAPWiFi needs at least one AP")
	}
	m := &MultiAPWiFi{
		cell:        cell,
		route:       route,
		aps:         aps,
		RoamMargin:  1.3,
		HandoverGap: 1.5,
	}
	pos := route.PositionAt(0)
	m.current = m.bestAP(pos)
	d := pos.Dist(aps[m.current])
	m.rate = cell.GoodputAt(d)
	m.associated = cell.Associated(d)
	eng.Tick(SampleInterval, func() { m.sample(eng.Now()) })
	return m
}

// bestAP returns the index of the AP with the highest goodput at pos.
func (m *MultiAPWiFi) bestAP(pos phy.Point) int {
	best, bestRate := 0, units.BitRate(-1)
	for i, ap := range m.aps {
		if r := m.cell.GoodputAt(pos.Dist(ap)); r > bestRate {
			best, bestRate = i, r
		}
	}
	return best
}

func (m *MultiAPWiFi) sample(t float64) {
	pos := m.route.PositionAt(t)
	if m.inHandover {
		if t < m.handoverEnd {
			m.set(0)
			return
		}
		m.inHandover = false
		m.setAssociated(true)
	}
	curRate := m.cell.GoodputAt(pos.Dist(m.aps[m.current]))
	best := m.bestAP(pos)
	bestRate := m.cell.GoodputAt(pos.Dist(m.aps[best]))
	// Roam when the current AP is unusable or another is clearly better.
	if best != m.current &&
		(curRate <= 0 || float64(bestRate) > float64(curRate)*m.RoamMargin) && bestRate > 0 {
		m.current = best
		m.inHandover = true
		m.handoverEnd = t + m.HandoverGap
		m.setAssociated(false)
		m.set(0)
		return
	}
	m.setAssociated(m.cell.Associated(pos.Dist(m.aps[m.current])))
	m.set(curRate)
}

func (m *MultiAPWiFi) setAssociated(assoc bool) {
	if assoc == m.associated {
		return
	}
	m.associated = assoc
	for _, fn := range m.assocObs {
		fn(assoc)
	}
}

// Associated reports whether the device currently holds an association.
func (m *MultiAPWiFi) Associated() bool { return m.associated }

// CurrentAP returns the index of the AP the device is associated with (or
// handing over to).
func (m *MultiAPWiFi) CurrentAP() int { return m.current }

// OnAssociationChange registers a callback fired on association changes.
func (m *MultiAPWiFi) OnAssociationChange(fn func(bool)) {
	m.assocObs = append(m.assocObs, fn)
}
