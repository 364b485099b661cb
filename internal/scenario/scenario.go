// Package scenario assembles complete experiments: a device (energy
// model + radios), two wireless links with time-varying bandwidth, an
// application workload, and one of the protocols under test. It is the
// simulator's equivalent of the paper's testbed — the Android phone, the
// lab AP whose bandwidth the authors modulate, and the wired MPTCP server.
//
// A Run drives the discrete-event engine, meters per-interface throughput
// into the energy accountant every 100 ms (the power-monitor role), and
// returns the quantities the paper's figures plot: total energy, download
// time, downloaded bytes, per-byte energy, and optional time-series
// traces.
package scenario

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eib"
	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/mptcp"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Protocol selects the transport strategy under test.
type Protocol int

// The protocols the paper compares.
const (
	// TCPWiFi is single-path TCP over the WiFi interface.
	TCPWiFi Protocol = iota
	// TCPLTE is single-path TCP over the LTE interface.
	TCPLTE
	// MPTCP is standard full-MPTCP over both interfaces with LIA.
	MPTCP
	// EMPTCP is the paper's energy-aware MPTCP.
	EMPTCP
	// WiFiFirst is MPTCP with the cellular subflow in backup mode,
	// activated only on WiFi disassociation (Raiciu et al., §4.6).
	WiFiFirst
	// MDP is the Markov-decision-process scheduler of Pluntke et al.,
	// generated offline and simulated (§4.6).
	MDP
	// SinglePath is MPTCP's Single-Path mode (Paasch et al., §2.1/§6):
	// one subflow at a time, with a new subflow established over the
	// other interface only after the active interface goes down. With
	// WiFi as the primary it avoids the cellular fixed overhead entirely
	// while WiFi is associated — and shares WiFi-First's inability to
	// react to throughput collapse without disassociation.
	SinglePath
)

// String names the protocol as the paper's figures do.
func (p Protocol) String() string {
	switch p {
	case TCPWiFi:
		return "TCP over WiFi"
	case TCPLTE:
		return "TCP over LTE"
	case MPTCP:
		return "MPTCP"
	case EMPTCP:
		return "eMPTCP"
	case WiFiFirst:
		return "MPTCP w/ WiFi First"
	case MDP:
		return "MDP scheduler"
	case SinglePath:
		return "Single-Path mode"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// AllProtocols lists every implemented protocol.
var AllProtocols = []Protocol{TCPWiFi, TCPLTE, MPTCP, EMPTCP, WiFiFirst, MDP, SinglePath}

// Scenario describes one experimental environment.
type Scenario struct {
	Name   string
	Device *energy.DeviceProfile
	// WiFi and LTE build the links' bandwidth processes on the engine.
	// WiFi may return a *link.MobileWiFi to expose association events.
	WiFi func(eng *sim.Engine, src *simrng.Source) link.Process
	LTE  func(eng *sim.Engine, src *simrng.Source) link.Process
	// WiFiRTT and LTERTT are the paths' base RTTs in seconds.
	WiFiRTT float64
	LTERTT  float64
	// Work is the application workload.
	Work workload.Workload
	// Horizon, when positive, cuts the run off after that many seconds
	// (the mobility experiments measure a fixed 250 s window).
	Horizon float64
	// CoreConfig, when non-nil, overrides eMPTCP's controller parameters
	// (κ, τ, predictor smoothing, the MinRate extension). Nil uses the
	// paper's defaults.
	CoreConfig *core.Config
	// AppPower is a constant application power draw (browser rendering,
	// video decode) charged while the session is active — the component
	// the paper's §5.4 web measurements include. Zero by default.
	AppPower units.Power

	// linkSig is a canonical description of how WiFi and LTE were
	// constructed, set only by this package's library constructors. The
	// link builders are funcs and cannot be digested; the signature
	// stands in for them in the run-cache key. Custom scenarios built
	// outside the library leave it empty and are never cached.
	linkSig string
}

// Opts carries per-run options.
type Opts struct {
	// Seed drives all randomness in the run.
	Seed int64
	// Trace records energy and throughput time series, sampled at
	// every 100 ms meter tick.
	Trace bool
	// Recorder, when non-nil, receives structured trace events from the
	// whole stack (kernel, TCP, MPTCP, radios, controller). Recorders
	// implementing trace.Sampler additionally get periodic Sample calls
	// on their own grid. One recorder must serve exactly one run.
	Recorder trace.Recorder
	// Cache, when non-nil, memoizes results across runs: a repeated
	// (scenario, protocol, seed, options) combination returns the cached
	// Result instead of re-simulating. Only library scenarios are
	// eligible (see Scenario.linkSig); runs with a Recorder always
	// execute, since the recorder observes events in-line. Cached
	// results are shared — callers must treat trace pointers as
	// read-only, which every consumer in this repository does.
	Cache *RunCache
}

// Result is what one run measures.
type Result struct {
	Protocol  Protocol
	Completed bool
	// CompletionTime is when the workload finished (download time); NaN
	// if it did not complete within the horizon.
	CompletionTime float64
	// Elapsed is the simulated time covered (completion or horizon).
	Elapsed float64
	// Energy is the total energy consumed, including cellular tails.
	Energy units.Energy
	// ByIface breaks the radio energy out per interface.
	ByIface [energy.NumInterfaces]units.Energy
	// BaseEnergy is the device-base component.
	BaseEnergy units.Energy
	// Downloaded is the total bytes delivered to the application.
	Downloaded units.ByteSize
	// Uploaded is the total bytes pushed from the device.
	Uploaded units.ByteSize
	// JPerByte is Energy / (Downloaded + Uploaded).
	JPerByte float64
	// BatteryPct is the energy expressed as a percentage of the device's
	// battery capacity.
	BatteryPct float64
	// Switches counts eMPTCP path-set changes (0 for other protocols).
	Switches int
	// LTEUsed reports whether the LTE radio was ever activated.
	LTEUsed bool
	// EnergyTrace and ThroughputTrace are present when Opts.Trace is set.
	EnergyTrace     *stats.TimeSeries
	ThroughputTrace [energy.NumInterfaces]*stats.TimeSeries
	// Decisions is eMPTCP's recorded path-set history (Trace runs only).
	Decisions []core.Decision
}

// meterInterval is the power-monitor sampling period.
const meterInterval = 0.1

// defaultHorizon bounds runs whose workload never completes.
const defaultHorizon = 14400

// run wires one protocol into one scenario.
type run struct {
	sc    Scenario
	proto Protocol
	opt   Opts

	eng   *sim.Engine
	src   *simrng.Source
	acct  *energy.Accountant
	arena *tcp.Arena

	wifiProc link.Process
	lteProc  link.Process
	wifiPath *tcp.Path
	ltePath  *tcp.Path

	delivered   [energy.NumInterfaces]units.ByteSize
	meterLast   [energy.NumInterfaces]units.ByteSize
	uplinked    [energy.NumInterfaces]units.ByteSize
	meterLastUp [energy.NumInterfaces]units.ByteSize
	lteTouched  bool

	nConns    uint64 // connections opened so far: each seeds its own RNG split
	ctls      []*core.Controller
	mdpPol    *baseline.MDPPolicy
	wifiAssoc associationSource
	wfRules   []*wfState
	complete  float64

	energyTrace *stats.TimeSeries
	thrTrace    [energy.NumInterfaces]*stats.TimeSeries
}

// wfState tracks one WiFi-First connection's backup bookkeeping.
type wfState struct {
	rule *baseline.WiFiFirst
	lte  *tcp.Subflow
}

// associationSource is implemented by WiFi processes that expose
// association events (link.MobileWiFi, link.MultiAPWiFi); the WiFi-First
// and Single-Path baselines key off them.
type associationSource interface {
	Associated() bool
	OnAssociationChange(func(bool))
}

// Run executes one scenario under one protocol and returns its Result.
// Run state (engine, accountant, subflow arena, scratch buffers) is drawn
// from a process-wide pool and reused between runs; a pooled run is
// bit-identical to a fresh-state one. With Opts.Cache set, cache-eligible
// runs (see Opts.Cache) are memoized under a content digest of their
// inputs and simulate at most once per cache.
func Run(sc Scenario, proto Protocol, opt Opts) Result {
	if opt.Cache != nil {
		if k, ok := CacheKey(sc, proto, opt); ok {
			return opt.Cache.Do(k, func() Result { return runPooled(sc, proto, opt) })
		}
	}
	return runPooled(sc, proto, opt)
}

func runPooled(sc Scenario, proto Protocol, opt Opts) Result {
	st := statePool.Get().(*RunState)
	// Deferred so a panicking run still returns its state to the pool:
	// reset rebuilds every piece from scratch, so a state abandoned
	// mid-run is as reusable as a clean one, and the pool does not
	// drain one slot per failure (the allocation mirror of PR 6's
	// round-record leak).
	defer statePool.Put(st)
	return st.runOne(sc, proto, opt)
}

// runOne executes one run on this state's reused allocations.
func (st *RunState) runOne(sc Scenario, proto Protocol, opt Opts) Result {
	if sc.Device == nil || sc.WiFi == nil || sc.LTE == nil || sc.Work == nil {
		panic("scenario: incomplete scenario")
	}
	r := st.reset(sc, proto, opt)
	r.acct.SetExtraBase(sc.AppPower)
	r.acct.SetSessionActive(true)
	if opt.Recorder != nil {
		r.eng.SetRecorder(opt.Recorder)
		r.acct.SetRecorder(opt.Recorder)
		if s, ok := opt.Recorder.(trace.Sampler); ok {
			if every := s.SampleEvery(); every > 0 {
				r.eng.Tick(every, func() { s.Sample(r.eng.Now()) })
			}
		}
	}

	r.wifiProc = sc.WiFi(r.eng, r.src.Split(0xaa))
	r.lteProc = sc.LTE(r.eng, r.src.Split(0xbb))
	if m, ok := r.wifiProc.(associationSource); ok {
		r.wifiAssoc = m
	}
	r.wifiPath = &tcp.Path{Name: "wifi", Capacity: r.wifiProc, BaseRTT: sc.WiFiRTT}
	r.ltePath = &tcp.Path{Name: "lte", Capacity: r.lteProc, BaseRTT: sc.LTERTT}

	if proto == MDP {
		r.mdpPol = baseline.GenerateMDP(baseline.DefaultMDPConfig(sc.Device))
	}

	// The power monitor: meter throughput into the accountant.
	r.eng.Tick(meterInterval, r.flushMeter)

	// Launch the workload.
	done := func(at float64) {
		r.complete = at
		r.eng.Stop()
	}
	sc.Work.Launch(r.eng, r.src.Split(0xcc), r.open, done)

	horizon := sc.Horizon
	if horizon <= 0 {
		horizon = defaultHorizon
	}
	r.eng.Horizon = horizon
	r.eng.Run()

	return r.collect()
}

// flushMeter advances the accountant to now with the throughput observed
// since the last flush.
func (r *run) flushMeter() {
	now := r.eng.Now()
	dt := now - r.acct.Now()
	if dt <= 0 {
		return
	}
	var thr energy.Throughputs
	for i := 0; i < energy.NumInterfaces; i++ {
		deltaDown := r.delivered[i] - r.meterLast[i]
		r.meterLast[i] = r.delivered[i]
		deltaUp := r.uplinked[i] - r.meterLastUp[i]
		r.meterLastUp[i] = r.uplinked[i]
		if deltaDown <= 0 && deltaUp <= 0 {
			continue
		}
		if deltaDown > 0 {
			thr.Down[i] = units.BitRate(deltaDown.Bits() / dt)
		}
		if deltaUp > 0 {
			thr.Up[i] = units.BitRate(deltaUp.Bits() / dt)
		}
		// Data observed on a radio that demoted to idle (e.g. WiFi after
		// a long HTTP idle gap) wakes it; promotion skew is bounded by
		// one meter interval.
		if r.acct.Radio(energy.Interface(i)).State() == energy.Idle {
			r.acct.Radio(energy.Interface(i)).Activate(r.acct.Now())
		}
	}
	// Optional weak-signal model: feed the WiFi link's current quality
	// (capacity over nominal) to the radio before integrating.
	if nom := r.sc.Device.Radios[energy.WiFi].WeakSignalNominal; nom > 0 {
		r.acct.Radio(energy.WiFi).SetQuality(float64(r.wifiProc.Rate()) / float64(nom))
	}
	r.acct.Advance(now, thr)
	if r.energyTrace != nil {
		r.energyTrace.Add(now, r.acct.Total().Joules())
		for i := range r.thrTrace {
			r.thrTrace[i].Add(now, (thr.Down[i] + thr.Up[i]).Mbit())
		}
	}
}

// radioControl implements core.RadioControl for eMPTCP.
type radioControl struct{ r *run }

func (rc radioControl) Activate(iface energy.Interface) float64 {
	rc.r.flushMeter()
	if iface == energy.LTE {
		rc.r.lteTouched = true
	}
	readyAt := rc.r.acct.Radio(iface).Activate(rc.r.eng.Now())
	return math.Max(0, readyAt-rc.r.eng.Now())
}

// connAdapter exposes protocol-managed transfers as a workload.Conn.
// Downloads and uploads ride separate MPTCP connections (each metered to
// the matching direction of the energy model), created lazily.
type connAdapter struct {
	r    *run
	down *mptcp.Connection
	up   *mptcp.Connection
}

func (a *connAdapter) Get(size units.ByteSize, onComplete func(at float64)) {
	if a.down == nil {
		a.down = a.r.openConn(false)
	}
	a.down.Download(size, onComplete)
}

func (a *connAdapter) Put(size units.ByteSize, onComplete func(at float64)) {
	if a.up == nil {
		a.up = a.r.openConn(true)
	}
	a.up.Download(size, onComplete)
}

// open creates one protocol-managed connection handle.
func (r *run) open() workload.Conn { return &connAdapter{r: r} }

// openConn wires one MPTCP connection for the protocol under test.
// Uplink connections meter their bytes into the uplink throughput vector,
// whose per-Mbps radio power is far higher on cellular.
func (r *run) openConn(uplink bool) *mptcp.Connection {
	opts := mptcp.DefaultOptions()
	opts.Arena = r.arena
	if r.proto == TCPWiFi || r.proto == TCPLTE {
		opts.Coupling = mptcp.Uncoupled
	}
	conn := mptcp.New(r.eng, r.src.Split(r.nConns+0xd0), opts)
	r.nConns++
	conn.OnDelivered = func(sf *tcp.Subflow, iface energy.Interface, n units.ByteSize) {
		if iface >= 0 && int(iface) < energy.NumInterfaces {
			if uplink {
				r.uplinked[iface] += n
			} else {
				r.delivered[iface] += n
			}
		}
	}
	rc := radioControl{r}

	switch r.proto {
	case TCPWiFi:
		rc.Activate(energy.WiFi)
		conn.AddSubflow("wifi", energy.WiFi, r.wifiPath, nil, 0)

	case TCPLTE:
		delay := rc.Activate(energy.LTE)
		conn.AddSubflow("lte", energy.LTE, r.ltePath, nil, delay)

	case MPTCP:
		rc.Activate(energy.WiFi)
		conn.AddSubflow("wifi", energy.WiFi, r.wifiPath, nil, 0)
		delay := rc.Activate(energy.LTE)
		conn.AddSubflow("lte", energy.LTE, r.ltePath, nil, delay)

	case EMPTCP:
		rc.Activate(energy.WiFi)
		wifiSF := conn.AddSubflow("wifi", energy.WiFi, r.wifiPath, nil, 0)
		// Upload connections decide from the uplink table: cellular
		// transmit power shifts every threshold.
		eibCfg := eib.DefaultConfig()
		eibCfg.Uplink = uplink
		table := eib.GenerateCached(r.sc.Device, eibCfg)
		lteCfg := tcp.DefaultConfig()
		lteCfg.DisableIdleCwndReset = true // §3.6 fast-reuse on resumed subflows
		coreCfg := core.DefaultConfig()
		if r.sc.CoreConfig != nil {
			coreCfg = *r.sc.CoreConfig
		}
		ctl := core.New(r.eng, coreCfg, table, conn, wifiSF, rc,
			func(extraDelay float64) *tcp.Subflow {
				return conn.AddSubflow("lte", energy.LTE, r.ltePath, &lteCfg, extraDelay)
			})
		ctl.Record = r.opt.Trace
		r.ctls = append(r.ctls, ctl)

	case WiFiFirst:
		rc.Activate(energy.WiFi)
		conn.AddSubflow("wifi", energy.WiFi, r.wifiPath, nil, 0)
		// "It also needlessly activates the cellular interface at
		// connection establishment" (§4.6).
		delay := rc.Activate(energy.LTE)
		lte := conn.AddSubflow("lte", energy.LTE, r.ltePath, nil, delay)
		associated := r.wifiAssoc == nil || r.wifiAssoc.Associated()
		st := &wfState{rule: baseline.NewWiFiFirst(associated), lte: lte}
		r.wfRules = append(r.wfRules, st)
		if associated {
			conn.SetBackup(lte, true)
		}
		if r.wifiAssoc != nil {
			r.wifiAssoc.OnAssociationChange(func(assoc bool) {
				if st.rule.OnAssociation(assoc) {
					d := rc.Activate(energy.LTE)
					r.eng.After(d, func() {
						if st.rule.UseCellular() {
							conn.SetBackup(st.lte, false)
						}
					})
				} else {
					conn.SetBackup(st.lte, true)
				}
			})
		}

	case MDP:
		rc.Activate(energy.WiFi)
		wifiSF := conn.AddSubflow("wifi", energy.WiFi, r.wifiPath, nil, 0)
		var lteSF *tcp.Subflow
		r.eng.Tick(r.mdpPol.Epoch(), func() {
			switch r.mdpPol.Decide(wifiSF.Throughput()) {
			case energy.WiFiOnly:
				if lteSF != nil {
					conn.SetBackup(lteSF, true)
				}
				conn.SetBackup(wifiSF, false)
			case energy.LTEOnly:
				if lteSF == nil {
					d := rc.Activate(energy.LTE)
					lteSF = conn.AddSubflow("lte", energy.LTE, r.ltePath, nil, d)
				} else {
					d := rc.Activate(energy.LTE)
					sf := lteSF
					r.eng.After(d, func() { conn.SetBackup(sf, false) })
				}
				wifiSF.Suspend()
			}
		})

	case SinglePath:
		rc.Activate(energy.WiFi)
		wifiSF := conn.AddSubflow("wifi", energy.WiFi, r.wifiPath, nil, 0)
		var lteSF *tcp.Subflow
		if r.wifiAssoc != nil {
			r.wifiAssoc.OnAssociationChange(func(assoc bool) {
				if !assoc {
					// One path at a time: the interface going down is
					// the only trigger for a new subflow, established
					// on demand (no pre-paid cellular activation).
					wifiSF.Suspend()
					d := rc.Activate(energy.LTE)
					if lteSF == nil {
						lteSF = conn.AddSubflow("lte", energy.LTE, r.ltePath, nil, d)
					} else {
						sf := lteSF
						r.eng.After(d, func() { conn.SetBackup(sf, false) })
					}
					return
				}
				// WiFi is the primary interface: return to it as soon
				// as it is available again, dropping the cellular path.
				rc.Activate(energy.WiFi)
				if lteSF != nil {
					conn.SetBackup(lteSF, true)
				}
				conn.SetBackup(wifiSF, false)
			})
		}

	default:
		panic(fmt.Sprintf("scenario: unimplemented protocol %v", r.proto))
	}
	return conn
}

// collect finalizes accounting and builds the Result.
func (r *run) collect() Result {
	r.flushMeter()
	completed := !math.IsNaN(r.complete)
	if completed {
		// A power monitor keeps recording through the cellular tail; the
		// fixed cost after the last byte belongs to the transfer.
		r.acct.Drain()
	}
	res := Result{
		Protocol:       r.proto,
		Completed:      completed,
		CompletionTime: r.complete,
		Elapsed:        r.eng.Now(),
		Energy:         r.acct.Total(),
		BaseEnergy:     r.acct.BaseEnergy(),
		Switches:       0,
		LTEUsed:        r.lteTouched || r.acct.InterfaceEnergy(energy.LTE) > 0,
	}
	// Traces are cloned out of the pooled scratch buffers: the Result
	// outlives this run slot's reuse.
	if r.energyTrace != nil {
		res.EnergyTrace = r.energyTrace.Clone()
	}
	for i := 0; i < energy.NumInterfaces; i++ {
		res.ByIface[i] = r.acct.InterfaceEnergy(energy.Interface(i))
		res.Downloaded += r.delivered[i]
		res.Uploaded += r.uplinked[i]
		if r.thrTrace[i] != nil {
			res.ThroughputTrace[i] = r.thrTrace[i].Clone()
		}
	}
	if moved := res.Downloaded + res.Uploaded; moved > 0 {
		res.JPerByte = res.Energy.PerByte(moved)
	} else {
		res.JPerByte = math.Inf(1)
	}
	res.BatteryPct = r.sc.Device.BatteryFraction(res.Energy) * 100
	for _, ctl := range r.ctls {
		res.Switches += ctl.Switches
		res.Decisions = append(res.Decisions, ctl.Decisions...)
	}
	return res
}
