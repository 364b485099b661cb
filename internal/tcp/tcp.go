// Package tcp models a TCP subflow at fluid-round granularity: each round
// one congestion window of data is sent over the path and acknowledged one
// RTT later, with slow start, congestion avoidance, fast-recovery halving,
// timeout backoff when the path is dead, and the RFC 2861 idle
// congestion-window reset that eMPTCP selectively disables for resumed
// subflows (§3.6 of the paper).
//
// The fluid model reproduces TCP's throughput dynamics — slow-start ramp,
// AIMD sawtooth tracking available bandwidth, multiplexed fair sharing —
// at a tiny fraction of per-packet simulation cost, which the experiment
// harness needs (hundreds of multi-hundred-megabyte downloads per table).
package tcp

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config carries the TCP parameters of a subflow.
type Config struct {
	// MSS is the maximum segment size.
	MSS units.ByteSize
	// InitialWindow is the initial congestion window in segments
	// (RFC 6928's IW10 is the modern default and what the paper's
	// equation 1 calls W_init).
	InitialWindow float64
	// MaxWindow caps the congestion window in segments (receive window).
	MaxWindow float64
	// MinRTO is the minimum retransmission timeout in seconds.
	MinRTO float64
	// DisableIdleCwndReset turns off the RFC 2861 congestion-window reset
	// after an idle period longer than the RTO. eMPTCP sets this for
	// resumed subflows so they avoid a needless slow start (§3.6).
	DisableIdleCwndReset bool
	// RTTJitter is the fractional jitter applied to each round's RTT.
	RTTJitter float64
}

// DefaultConfig returns standard host TCP parameters.
func DefaultConfig() Config {
	return Config{
		MSS:           1460,
		InitialWindow: 10,
		MaxWindow:     1024,
		MinRTO:        1.0,
		RTTJitter:     0.08,
	}
}

// Path is one end-to-end network path (interface pair). Concurrent
// subflows on the same path share its capacity equally, as 802.11 DCF and
// router queues do over TCP timescales.
type Path struct {
	// Name identifies the path in logs ("wifi", "lte").
	Name string
	// Capacity is the available-bandwidth process.
	Capacity link.Process
	// BaseRTT is the path's propagation RTT in seconds.
	BaseRTT float64
	// ExtraLoss, when non-nil, returns an additional per-packet random
	// loss probability (e.g. contention collisions).
	ExtraLoss func() float64

	active int // subflows with a round in progress

	// lossProc caches the Capacity's LossProcess assertion: LossProb runs
	// once per round, and the dynamic type of Capacity never changes over
	// a Path's lifetime.
	lossProc link.LossProcess

	// loss holds the round-loss decision's constants, allocated the
	// first time the path reports a nonzero loss probability, so a
	// lossless path carries only the pointer.
	loss *roundLoss

	lossChecked bool
}

// LossProb returns the path's current per-packet random loss probability.
func (p *Path) LossProb() float64 {
	if p.ExtraLoss != nil {
		return p.ExtraLoss()
	}
	if !p.lossChecked {
		p.lossChecked = true
		p.lossProc, _ = p.Capacity.(link.LossProcess)
	}
	if p.lossProc != nil {
		return p.lossProc.LossProb()
	}
	return 0
}

// share returns the capacity available to one of the currently-active
// subflows. With at most one active subflow it is the whole rate: x/1 is
// x bit for bit, so skipping the division changes no output.
func (p *Path) share() units.BitRate {
	if p.active <= 1 {
		return p.Capacity.Rate()
	}
	return p.Capacity.Rate() / units.BitRate(p.active)
}

// State is a subflow's lifecycle position.
type State int

// Subflow states.
const (
	Closed State = iota
	Connecting
	Established
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "CLOSED"
	case Connecting:
		return "CONNECTING"
	case Established:
		return "ESTABLISHED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// DataSource supplies a subflow with data and receives its deliveries.
// The MPTCP connection implements it; a plain single-path TCP download
// implements it trivially.
type DataSource interface {
	// Request asks for up to max bytes to send this round. Returning 0
	// idles the subflow until Kick is called.
	Request(sf *Subflow, max units.ByteSize) units.ByteSize
	// Delivered reports bytes that arrived at the receiver.
	Delivered(sf *Subflow, n units.ByteSize)
	// Returned hands back bytes that could not be transmitted because
	// the path was dead (zero capacity through a whole timeout).
	Returned(sf *Subflow, n units.ByteSize)
	// IncreasePerRTT returns the congestion-avoidance window increase in
	// segments for this subflow's next round: 1 for uncoupled Reno, the
	// LIA coupled value for standard MPTCP.
	IncreasePerRTT(sf *Subflow) float64
}

// Subflow is one TCP flow over a Path.
type Subflow struct {
	// The congestion state leads the struct so it shares the first cache
	// line: the LIA coupling loop reads state, cwnd, srtt, and suspended
	// from every sibling subflow on every congestion-avoidance round, and
	// sibling structs are usually cold by then.
	state    State
	cwnd     float64 // segments
	ssthresh float64 // segments
	srtt     float64 // smoothed RTT estimate, seconds

	suspended bool
	inRound   bool
	everSent  bool

	lastSendAt float64 // end of the most recent active round

	// ID tags the subflow for logs and scheduling.
	ID string
	// Meta carries caller-defined context (the MPTCP layer stores the
	// interface identity here).
	Meta any

	eng    *sim.Engine
	src    *simrng.Source
	path   *Path
	cfg    Config
	source DataSource

	// HandshakeRTT is the RTT measured during establishment (the paper
	// uses it to set the bandwidth-predictor sampling interval δ).
	HandshakeRTT float64

	// BytesDelivered counts cumulative bytes delivered to the receiver.
	BytesDelivered units.ByteSize
	// Rounds counts transmission rounds.
	Rounds int
	// Losses counts loss events (halvings plus timeouts).
	Losses int

	// OnEstablished, when non-nil, fires once the handshake completes.
	OnEstablished func(sf *Subflow)

	hsRTT     float64       // RTT drawn for the in-progress handshake
	estFn     func()        // pre-bound handshake completion
	kickFn    func()        // pre-bound Kick for deferred wakeups
	roundFree []*roundState // free-listed round records
	roundAll  []*roundState // every record ever created, reclaimed at re-init
}

// roundState carries one in-flight round's values to its pre-bound
// completion callback — exactly what the per-round closures used to
// capture. Records are free-listed per subflow, so steady-state rounds
// allocate nothing while still behaving like independent closures when
// re-entrant delivery starts a second concurrent round (receive-window
// wakeups can).
type roundState struct {
	sf        *Subflow
	n         units.ByteSize
	dur       float64
	lost      bool
	def       sim.Deferred // reserved engine slot while the round is deferred
	endFn     func()
	timeoutFn func()
}

// getRound pops a free round record or builds one, binding its callbacks
// exactly once.
func (sf *Subflow) getRound() *roundState {
	if n := len(sf.roundFree); n > 0 {
		r := sf.roundFree[n-1]
		sf.roundFree = sf.roundFree[:n-1]
		return r
	}
	r := &roundState{sf: sf}
	r.endFn = r.end
	r.timeoutFn = r.timeout
	sf.roundAll = append(sf.roundAll, r)
	return r
}

func (sf *Subflow) putRound(r *roundState) { sf.roundFree = append(sf.roundFree, r) }

// NewSubflow builds a closed subflow over path. Call Connect to start it.
func NewSubflow(id string, eng *sim.Engine, src *simrng.Source, path *Path, cfg Config, source DataSource) *Subflow {
	sf := &Subflow{}
	initSubflow(sf, id, eng, src, path, cfg, source)
	return sf
}

// initSubflow (re)initializes a subflow in place — sf is either zeroed
// (NewSubflow) or a recycled Arena slot, whose pre-bound callbacks and
// round records are kept so reuse allocates nothing.
func initSubflow(sf *Subflow, id string, eng *sim.Engine, src *simrng.Source, path *Path, cfg Config, source DataSource) {
	if cfg.MSS <= 0 || cfg.InitialWindow <= 0 || cfg.MaxWindow < cfg.InitialWindow || cfg.MinRTO <= 0 {
		panic("tcp: invalid subflow config")
	}
	*sf = Subflow{
		ID:        id,
		eng:       eng,
		src:       src,
		path:      path,
		cfg:       cfg,
		source:    source,
		estFn:     sf.estFn,
		kickFn:    sf.kickFn,
		roundFree: sf.roundFree,
		roundAll:  sf.roundAll,
	}
	if sf.estFn == nil {
		sf.estFn = sf.established
		sf.kickFn = sf.Kick
	}
	// No round is in flight at (re)init, so every registered record is
	// free. Rebuilding the free list here reclaims records whose end event
	// never fired because the previous run completed first — otherwise a
	// recycled slot leaks one record per run and the registry grows
	// without bound.
	sf.roundFree = append(sf.roundFree[:0], sf.roundAll...)
}

// Path returns the subflow's path.
func (sf *Subflow) Path() *Path { return sf.path }

// State returns the subflow's lifecycle state.
func (sf *Subflow) State() State { return sf.state }

// Cwnd returns the congestion window in segments.
func (sf *Subflow) Cwnd() float64 { return sf.cwnd }

// SRTT returns the smoothed RTT estimate in seconds (the handshake RTT
// until data rounds refine it).
func (sf *Subflow) SRTT() float64 { return sf.srtt }

// Suspended reports whether the subflow is in backup (MP_PRIO) mode.
func (sf *Subflow) Suspended() bool { return sf.suspended }

// rtt samples the path RTT with jitter.
func (sf *Subflow) rtt() float64 {
	return sf.src.Jitter(sf.path.BaseRTT, sf.cfg.RTTJitter)
}

// rto returns the current retransmission timeout.
func (sf *Subflow) rto() float64 {
	return max(sf.cfg.MinRTO, 2*sf.srtt)
}

// Connect starts the three-way handshake, taking extraDelay seconds before
// the SYN leaves (e.g. a cellular radio promotion). The subflow becomes
// Established one handshake-RTT later and begins transmitting.
func (sf *Subflow) Connect(extraDelay float64) {
	if sf.state != Closed {
		panic("tcp: Connect on a non-closed subflow")
	}
	sf.state = Connecting
	sf.hsRTT = sf.rtt()
	sf.eng.After(extraDelay+sf.hsRTT, sf.estFn)
}

// established completes the handshake (pre-bound in NewSubflow).
func (sf *Subflow) established() {
	hsRTT := sf.hsRTT
	sf.state = Established
	sf.HandshakeRTT = hsRTT
	sf.srtt = hsRTT
	sf.cwnd = sf.cfg.InitialWindow
	sf.ssthresh = sf.cfg.MaxWindow
	sf.lastSendAt = sf.eng.Now()
	if rec := sf.eng.Recorder(); rec != nil {
		rec.Record(trace.Event{
			T: sf.eng.Now(), Kind: trace.KindTCPState,
			Subflow: sf.ID, From: Connecting.String(), To: Established.String(),
		})
	}
	if sf.OnEstablished != nil {
		sf.OnEstablished(sf)
	}
	sf.Kick()
}

// KickFunc returns the subflow's pre-bound Kick callback, so callers
// scheduling deferred wakeups (the min-RTT scheduler) allocate no closure
// per deferral. Any number of arms may be outstanding at once.
func (sf *Subflow) KickFunc() func() { return sf.kickFn }

// Suspend places the subflow in backup mode (the MP_PRIO low-priority
// signal): it finishes the round in flight and then requests no more data.
func (sf *Subflow) Suspend() { sf.suspended = true }

// Resume lifts backup mode. Per RFC 2861, a window that sat idle longer
// than the RTO collapses back to the initial window — unless the
// configuration disables the reset, which is exactly eMPTCP's fast-reuse
// modification (§3.6). In that mode the measured RTT is also zeroed, so
// the min-RTT scheduler immediately re-probes the renewed subflow instead
// of starving it behind lower-RTT peers.
func (sf *Subflow) Resume() {
	if !sf.suspended {
		return
	}
	sf.suspended = false
	sf.applyIdleReset()
	if sf.cfg.DisableIdleCwndReset {
		sf.srtt = 1e-3 // §3.6: report ~zero RTT until data rounds re-measure it
	}
	sf.Kick()
}

// Kick restarts the round loop of an established, idle subflow. The data
// source calls it when new data becomes available.
func (sf *Subflow) Kick() {
	if sf.state != Established || sf.suspended || sf.inRound {
		return
	}
	sf.applyIdleReset()
	sf.startRound(false)
}

// applyIdleReset implements RFC 2861: reset cwnd after an idle period
// longer than the RTO, unless disabled.
func (sf *Subflow) applyIdleReset() {
	if sf.cfg.DisableIdleCwndReset || !sf.everSent {
		return
	}
	if sf.eng.Now()-sf.lastSendAt > sf.rto() {
		sf.cwnd = sf.cfg.InitialWindow
		sf.ssthresh = sf.cfg.MaxWindow
	}
}

// startRound begins one transmission round.
//
// When deferOK is true (only the round batcher passes it), a live round's
// completion is not pushed onto the event heap: its engine slot — fire
// time plus reserved sequence number — is parked in r.def and the round
// record is returned, so the batcher can either run it inline or commit
// it to the heap later. The reservation draws the same sequence number
// and emits the same schedule trace event a real After would, keeping
// event ordering and traces bit-identical. Dead-path timeouts always go
// through the heap: a round that moves no data gains nothing from
// coalescing, and the RTO window is long enough that a foreign event
// almost always intervenes anyway.
func (sf *Subflow) startRound(deferOK bool) *roundState {
	want := units.ByteSize(sf.cwnd) * sf.cfg.MSS
	n := sf.source.Request(sf, want)
	if n <= 0 {
		return nil // idle until Kick
	}
	sf.inRound = true
	sf.everSent = true
	sf.path.active++

	share := sf.path.share()
	rtt := sf.rtt()
	r := sf.getRound()
	r.n = n

	if share <= 0 {
		// Dead path: nothing moves for a full RTO, then the data is
		// returned (the sender would retransmit; the connection may
		// reinject it on another subflow) and the window collapses.
		sf.eng.After(sf.rto(), r.timeoutFn)
		return nil
	}

	offered := units.BitRate(n.Bits() / rtt)
	congested := offered > share
	// Round duration: the self-clocked RTT, stretched when the pipe
	// cannot carry a full window per RTT.
	dur := max(rtt, n.Bits()/float64(share))

	// Random per-packet loss aggregated to a per-round loss event with
	// probability 1 − (1 − lp)^pkts. A congested round is lost without a
	// draw, and a lossless path draws nothing (its probability is exactly
	// 0); otherwise lostRound takes the one draw and decides it exactly
	// as Bernoulli(1 - math.Pow(1-lp, pkts)) would (see loss.go).
	lp := sf.path.LossProb()
	r.lost = congested || lp != 0 && sf.path.lostRound(sf.src, lp, max(1, float64(n)/float64(sf.cfg.MSS)))
	r.dur = dur
	if deferOK {
		r.def = sf.eng.DeferAt(sf.eng.Now() + dur)
		return r
	}
	sf.eng.After(dur, r.endFn)
	return nil
}

// timeout ends a dead-path round after a full RTO.
func (r *roundState) timeout() {
	sf, n := r.sf, r.n
	sf.putRound(r)
	sf.path.active--
	sf.inRound = false
	sf.Losses++
	sf.cwnd = sf.cfg.InitialWindow
	sf.ssthresh = max(sf.ssthresh/2, 2)
	sf.lastSendAt = sf.eng.Now()
	if rec := sf.eng.Recorder(); rec != nil {
		rec.Record(trace.Event{
			T: sf.eng.Now(), Kind: trace.KindLoss,
			Subflow: sf.ID, To: "timeout", A: sf.cwnd, B: sf.ssthresh,
		})
	}
	sf.source.Returned(sf, n)
	// Retry while data remains queued for us.
	sf.startRound(false)
}

// maxBatchRounds caps how many rounds one fired event may execute inline.
// The cap bounds clock drift between re-entries into the engine, keeping
// the batcher honest without affecting output (every coalesced round runs
// at exactly the virtual time it would have run unbatched).
var maxBatchRounds = 64

// end is the round-completion event body — and the round batcher. The
// engine fires it once; it then executes up to maxBatchRounds rounds
// inline, as long as each round's completion is provably the very next
// event the engine would dispatch (TryFireInline) and the cap has not
// been hit. That one check is enough: whatever changes the subflow's
// world between rounds — an MP_PRIO flip, a subflow join, a scheduler
// deferral, a radio activation, a capacity change — is either an event
// ordered ahead of the round, which TryFireInline refuses the slot for
// or fires first (a tick), or runs synchronously inside a round body,
// in the same order batched or not. Every coalesced round performs
// identical arithmetic, RNG draws, trace emissions, and source callbacks
// at identical virtual times; only the k−1 heap pushes/pops and engine
// Step round-trips are skipped.
func (r *roundState) end() {
	sf := r.sf
	for k := 0; ; k++ {
		next := sf.finishRound(r)
		if next == nil {
			return // subflow idle, suspended, or on the dead-path timer
		}
		r = next
		if k >= maxBatchRounds || !sf.eng.TryFireInline(r.def) {
			sf.eng.CommitDeferred(r.def, r.endFn)
			return
		}
	}
}

// finishRound completes one transmission round and, when the subflow
// stays busy, starts the next one in deferred form, returning its record
// for the batcher to dispatch. It is the exact body the per-round event
// callback had before batching.
func (sf *Subflow) finishRound(r *roundState) *roundState {
	n, dur, lost := r.n, r.dur, r.lost
	sf.putRound(r)
	sf.path.active--
	sf.inRound = false
	sf.Rounds++
	sf.lastSendAt = sf.eng.Now()
	// Update the smoothed RTT with this round's effective duration.
	sf.srtt = 0.875*sf.srtt + 0.125*dur

	if lost {
		sf.Losses++
		sf.ssthresh = max(sf.cwnd/2, 2)
		sf.cwnd = sf.ssthresh // fast recovery, not timeout
	} else if sf.cwnd < sf.ssthresh {
		sf.cwnd = min(sf.cwnd*2, sf.ssthresh) // slow start
	} else {
		sf.cwnd += sf.source.IncreasePerRTT(sf) // congestion avoidance
	}
	sf.cwnd = min(sf.cwnd, sf.cfg.MaxWindow)
	sf.cwnd = max(sf.cwnd, 1)
	if rec := sf.eng.Recorder(); rec != nil {
		if lost {
			rec.Record(trace.Event{
				T: sf.eng.Now(), Kind: trace.KindLoss,
				Subflow: sf.ID, To: "halve", A: sf.cwnd, B: sf.ssthresh,
			})
		}
		rec.Record(trace.Event{
			T: sf.eng.Now(), Kind: trace.KindCwnd,
			Subflow: sf.ID, A: sf.cwnd, B: sf.ssthresh,
		})
	}

	// The fluid model delivers the round's bytes reliably; loss is
	// reflected in window dynamics (retransmissions ride inside the
	// stretched round duration).
	sf.BytesDelivered += n
	sf.source.Delivered(sf, n)
	if !sf.suspended {
		return sf.startRound(true)
	}
	return nil
}

// Throughput returns the subflow's smoothed current goodput estimate:
// cwnd·MSS per smoothed RTT, bounded by its capacity share. It is the
// instantaneous quantity the paper's Figure 9 plots.
func (sf *Subflow) Throughput() units.BitRate {
	if sf.state != Established || sf.srtt <= 0 {
		return 0
	}
	w := units.BitRate((units.ByteSize(sf.cwnd) * sf.cfg.MSS).Bits() / sf.srtt)
	share := sf.path.share()
	if w > share {
		return share
	}
	return w
}
