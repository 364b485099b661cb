// Package ptcp is a packet-granularity TCP and MPTCP reference model:
// flows over fixed-rate bottlenecks with drop-tail queues, simulated packet
// by packet — data transmissions, queueing, propagation, ACK clocking,
// duplicate-ACK fast retransmit, and retransmission timeouts. RunMPTCP adds
// multiple subflows under one connection: a per-packet min-RTT scheduler, a
// connection-level reorder buffer with DSS-style in-order delivery
// tracking, and RFC 6356 LIA coupling, mirroring internal/mptcp's fluid
// semantics at packet granularity.
//
// The experiment harness's paper tables do not run on this model (a 256 MB
// download is ~180 000 packets; the fluid-round model in internal/tcp is
// 3–4 orders of magnitude cheaper). Its job is validation: the xval
// experiment family and the cross-model tests check that the fluid
// approximation delivers the same goodput and completion times the packet
// model does, which is what DESIGN.md §4.1 promises and §4.15 quantifies.
//
// The kernel is allocation-free in steady state (DESIGN.md §4.15): segment
// state lives in sliding-window ring bitsets instead of maps; the
// bottleneck FIFO's pending ACKs live in one flat ring walked by a single
// pre-bound event per link under the sim batch-window contract (the
// drop-tail queue serializes segments, so ACKs arrive in transmit order at
// times computed at transmit — one event can chase the whole stream
// inline); the RTO is a lazily re-armed deadline that never cancels
// through the event heap; and flow state is pooled across runs.
package ptcp

import (
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/units"
)

// Config carries the sender's TCP parameters.
type Config struct {
	// MSS is the segment size.
	MSS units.ByteSize
	// InitialWindow is the initial congestion window in segments.
	InitialWindow float64
	// MaxWindow caps the window (receive window), in segments.
	MaxWindow float64
	// MinRTO floors the retransmission timeout, in seconds.
	MinRTO float64
}

// DefaultConfig matches internal/tcp's defaults.
func DefaultConfig() Config {
	return Config{MSS: 1460, InitialWindow: 10, MaxWindow: 1024, MinRTO: 1.0}
}

// Link is a bottleneck path: a fixed service rate, a drop-tail queue,
// and symmetric propagation delay.
type Link struct {
	// Rate is the bottleneck service rate.
	Rate units.BitRate
	// OneWayDelay is the propagation delay each way, in seconds.
	OneWayDelay float64
	// QueuePackets is the drop-tail queue capacity in packets.
	QueuePackets int
}

// Result reports a finished (or horizon-cut) transfer.
type Result struct {
	// Completed reports whether every byte was acknowledged.
	Completed bool
	// FinishedAt is when the last byte was acknowledged.
	FinishedAt float64
	// Delivered counts acknowledged bytes.
	Delivered units.ByteSize
	// Retransmits counts retransmitted segments (every resent copy,
	// go-back-N resends after a timeout included).
	Retransmits int
	// FastRecoveries counts triple-dupACK events.
	FastRecoveries int
	// Timeouts counts RTO firings.
	Timeouts int
	// Packets counts data transmissions (including retransmits).
	Packets int
}

// sink lets a connection layer steer a sender: hand out data, observe
// cumulative delivery, and choose the per-ACK congestion-avoidance
// increase. The single-flow Run and the MPTCP connection are the two
// implementations.
type sink interface {
	// next returns the connection-level segment to bind to the sender's
	// next new subflow sequence number, or -1 when no data is available.
	next(s *sender) int
	// advanced reports the sender's cumulative ACK point passing one
	// segment, identified by its connection-level number.
	advanced(s *sender, connSeq int)
	// finished reports (and latches) transfer completion; a true return
	// stops ACK processing before window growth, matching the scalar
	// model's completion check.
	finished(s *sender) bool
	// caIncrease returns the congestion-avoidance window increase for one
	// ACK: 1/cwnd for plain Reno, the RFC 6356 coupled increase for LIA.
	caIncrease(s *sender) float64
}

// initialWindowBits sizes the ring bitsets at reset; ensureCap doubles
// them if a window ever spans more (MaxWindow 1024 plus the acked span
// fits comfortably in 4096).
const initialWindowBits = 4096

// pipeSeg is one accepted segment in flight through the bottleneck FIFO:
// its ACK arrival time (computed exactly at transmit, with the same float
// operations the scalar model used) and the transmission instant the RTT
// sample is measured from.
type pipeSeg struct {
	ackAt float64
	sent  float64
	seq   int32
}

// sender is one SACK-Reno sender over one Link: the scalar prototype's
// flow state machine with the maps replaced by ring bitsets, the
// per-packet ACK closures replaced by the pipe ring, and the data source
// abstracted behind a sink so MPTCP subflows can share it.
type sender struct {
	eng  *sim.Engine
	cfg  Config
	link Link
	snk  sink
	txT  float64 // serialization time of one segment at the bottleneck

	nextSeq     int // next subflow sequence to (re)send
	highestAck  int // cumulative ACK point (segments fully acked)
	maxSent     int // one past the highest sequence ever transmitted
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	inRecovery  bool
	recoverSeq  int // recovery ends when this segment is acked
	rtxCursor   int // scan position for the next hole
	queueFreeAt float64

	// Live bits are confined to [flightLo, maxSent). acked and rtx bits
	// stay within [highestAck, maxSent) — the advance loop clears their
	// slots as it passes so seq+capBits can reuse them — but inFlight
	// bits can dip below the cumulative point: go-back-N resends
	// already-acked segments, and when the acked run then advances
	// highestAck past them their copies are still in the network. Those
	// stale bits are cleared by their own (late, duplicate) ACKs or by
	// the next timeout; staleFlight counts them, and flightLo snaps back
	// up to highestAck whenever it hits zero.
	inFlight      bitring // unacked segments currently in the network
	acked         bitring // segments delivered and acknowledged
	rtx           bitring // holes already retransmitted this recovery
	inFlightCount int
	flightLo      int     // no set inFlight bit lives below this (≤ highestAck)
	staleFlight   int     // set inFlight bits below highestAck
	dseq          []int32 // subflow seq → connection seq (MPTCP only); same mask as the rings

	// The pipe: pending ACKs of accepted segments, in arrival order (the
	// drop-tail queue is a FIFO, so arrival order is transmit order and
	// every arrival time is known at transmit). One scheduled event walks
	// it, continuing inline when the next arrival is provably the
	// engine's next dispatch.
	pipe      []pipeSeg // power-of-two ring
	pipeHead  int
	pipeLen   int
	pipeArmed bool   // a heap event for the pipe is pending
	pipeFn    func() // pre-bound pipeFire, created once per sender

	srtt   float64
	rttvar float64 // RFC 6298 smoothed RTT variance

	// The RTO is a logical deadline, not a per-ACK cancel/re-arm: every
	// send moves rtoAt, and the one pending event chases it, firing for
	// real only when it lands on (or past) the deadline. The heap is
	// touched again only when the deadline moves earlier than the pending
	// event (rto() can shrink while srtt converges) — rare, so per-ACK
	// re-arming costs no heap traffic. +Inf disarms.
	rtoAt    float64
	rtoEv    sim.Event
	rtoEvAt  float64 // fire time of the pending event
	rtoArmed bool    // a heap event for the RTO is pending
	rtoFn    func()  // pre-bound rtoEvent, created once per sender

	res Result
}

// reset readies a pooled sender for a fresh transfer on eng.
func (s *sender) reset(eng *sim.Engine, cfg Config, link Link, snk sink, withDSeq bool) {
	s.eng = eng
	s.cfg = cfg
	s.link = link
	s.snk = snk
	s.txT = cfg.MSS.Bits() / float64(link.Rate)
	s.nextSeq, s.highestAck, s.maxSent = 0, 0, 0
	s.cwnd = cfg.InitialWindow
	s.ssthresh = cfg.MaxWindow
	s.dupAcks = 0
	s.inRecovery = false
	s.recoverSeq, s.rtxCursor = 0, 0
	s.queueFreeAt = 0
	s.inFlight.init(initialWindowBits)
	s.acked.init(initialWindowBits)
	s.rtx.init(initialWindowBits)
	s.inFlightCount = 0
	s.flightLo, s.staleFlight = 0, 0
	if withDSeq {
		// Values need no clearing: a slot is written at assignment before
		// it can be read by the advance loop.
		if cap(s.dseq) >= initialWindowBits {
			s.dseq = s.dseq[:initialWindowBits]
		} else {
			s.dseq = make([]int32, initialWindowBits)
		}
	} else {
		s.dseq = nil
	}
	if s.pipe == nil {
		s.pipe = make([]pipeSeg, 256)
	}
	s.pipeHead, s.pipeLen = 0, 0
	s.pipeArmed = false
	if s.pipeFn == nil {
		s.pipeFn = s.pipeFire
		s.rtoFn = s.rtoEvent
	}
	s.srtt = 2 * link.OneWayDelay
	s.rttvar = s.srtt / 2
	s.rtoAt = math.Inf(1)
	s.rtoEv = sim.Event{}
	s.rtoEvAt = 0
	s.rtoArmed = false
	s.res = Result{}
}

// ensureCap grows the rings (and the dseq map, if present) until seq fits
// in the live window span [flightLo, maxSent). New transmits (seq ==
// maxSent) push the top; go-back-N resends below flightLo push the
// bottom.
func (s *sender) ensureCap(seq int) {
	lo, hi := s.flightLo, s.maxSent
	if seq < lo {
		lo = seq
	}
	if seq >= hi {
		hi = seq + 1
	}
	bits := s.acked.capBits()
	if hi-lo <= bits {
		return
	}
	for hi-lo > bits {
		bits <<= 1
	}
	s.inFlight.grow(bits, s.flightLo, s.maxSent)
	s.acked.grow(bits, s.flightLo, s.maxSent)
	s.rtx.grow(bits, s.flightLo, s.maxSent)
	if s.dseq != nil {
		old := s.dseq
		oldMask := len(old) - 1
		s.dseq = make([]int32, bits)
		for q := s.flightLo; q < s.maxSent; q++ {
			s.dseq[q&(bits-1)] = old[q&oldMask]
		}
	}
}

// rto returns the current retransmission timeout per RFC 6298:
// srtt + 4·rttvar, floored at MinRTO.
func (s *sender) rto() float64 {
	return math.Max(s.cfg.MinRTO, s.srtt+4*s.rttvar)
}

// send transmits as many segments as the window allows: first any
// go-back-N resends below maxSent, then new data pulled from the sink.
func (s *sender) send() {
	for s.inFlightCount < int(s.cwnd) {
		seq := s.nextSeq
		if seq >= s.maxSent {
			c := s.snk.next(s)
			if c < 0 {
				break
			}
			s.ensureCap(seq)
			if s.dseq != nil {
				s.dseq[seq&s.acked.mask] = int32(c)
			}
		}
		s.transmit(seq)
		s.nextSeq++
	}
	s.armRTO()
}

// transmit puts one segment into the bottleneck queue. The segment counts
// against the window whether or not the queue drops it — the sender cannot
// observe a drop until duplicate ACKs or a timeout reveal it. An accepted
// segment's ACK arrival time is fully determined here; the segment joins
// the pipe ring and the pipe's single event walks it in arrival order.
func (s *sender) transmit(seq int) {
	now := s.eng.Now()
	s.res.Packets++
	if seq < s.maxSent {
		s.res.Retransmits++ // every resent copy counts
	} else {
		s.maxSent = seq + 1
	}
	if seq < s.flightLo {
		// A go-back-N resend below every live bit: widen the span
		// downward (the slot is provably clear below flightLo).
		s.ensureCap(seq)
		s.flightLo = seq
	}
	if !s.inFlight.get(seq) {
		s.inFlight.set(seq)
		s.inFlightCount++
		if seq < s.highestAck {
			s.staleFlight++
		}
	}
	start := math.Max(now, s.queueFreeAt)
	queued := (start - now) / s.txT
	if int(queued) >= s.link.QueuePackets {
		// Drop-tail: the segment is lost; recovery via dupACKs or RTO.
		return
	}
	depart := start + s.txT
	s.queueFreeAt = depart
	arrive := depart + s.link.OneWayDelay
	s.pushPipe(pipeSeg{ackAt: arrive + s.link.OneWayDelay, sent: now, seq: int32(seq)})
}

// pushPipe appends a pending ACK behind the pipe and makes sure the pipe
// event is armed. Arrival times are strictly increasing along the ring
// (the FIFO serializes departures), so an armed event — always at the
// head's arrival — never needs rescheduling on append.
func (s *sender) pushPipe(g pipeSeg) {
	if s.pipeLen == len(s.pipe) {
		old := s.pipe
		np := make([]pipeSeg, 2*len(old))
		for i := 0; i < s.pipeLen; i++ {
			np[i] = old[(s.pipeHead+i)&(len(old)-1)]
		}
		s.pipe = np
		s.pipeHead = 0
	}
	s.pipe[(s.pipeHead+s.pipeLen)&(len(s.pipe)-1)] = g
	s.pipeLen++
	if !s.pipeArmed {
		s.pipeArmed = true
		s.eng.Schedule(g.ackAt, s.pipeFn)
	}
}

// pipeFire delivers the ACK at the pipe's head, then chases the stream:
// the next arrival continues inline when it is provably the engine's next
// dispatch (sim batch-window contract) and re-enters the heap — with
// exact arrival-time bits via DeferAt — otherwise.
func (s *sender) pipeFire() {
	for {
		head := s.pipe[s.pipeHead]
		s.pipeHead = (s.pipeHead + 1) & (len(s.pipe) - 1)
		s.pipeLen--
		s.onAck(int(head.seq), s.eng.Now()-head.sent)
		if s.pipeLen == 0 {
			s.pipeArmed = false
			return
		}
		d := s.eng.DeferAt(s.pipe[s.pipeHead].ackAt)
		if !s.eng.TryFireInline(d) {
			s.eng.CommitDeferred(d, s.pipeFn)
			return
		}
	}
}

// onAck processes the receiver's cumulative ACK for a delivered segment.
// The RTT estimators update on every sample (stale ones included, as the
// scalar model did). Stale ACKs — sequences the cumulative point already
// passed — still clear the segment's inFlight bit: go-back-N resends
// already-acked segments, so their (duplicate) ACKs are the only thing
// that releases those copies' window space before the next timeout. The
// scalar model's acked[seq] write on the stale path is skipped — it is
// write-only there (nothing ever reads acked below highestAck), and the
// ring slot may already belong to seq+capBits.
func (s *sender) onAck(seq int, rttSample float64) {
	d := s.srtt - rttSample
	if d < 0 {
		d = -d
	}
	s.rttvar = 0.75*s.rttvar + 0.25*d
	s.srtt = 0.875*s.srtt + 0.125*rttSample

	if seq >= s.flightLo && s.inFlight.get(seq) {
		s.inFlight.clear(seq)
		s.inFlightCount--
		if seq < s.highestAck {
			s.staleFlight--
		}
	}
	if seq < s.highestAck {
		if s.staleFlight == 0 {
			s.flightLo = s.highestAck
		}
		return // stale
	}
	s.acked.set(seq)
	// Advance the cumulative point over every delivered segment, clearing
	// acked and rtx slots behind it for reuse. A passed segment's inFlight
	// bit is usually clear (acked is only ever set by that segment's own
	// onAck, which clears inFlight first) — but a go-back-N resend can
	// have re-set it, in which case the copy is still in the network and
	// the bit goes stale rather than away.
	advanced := false
	for s.acked.get(s.highestAck) {
		h := s.highestAck
		conn := h
		if s.dseq != nil {
			conn = int(s.dseq[h&s.acked.mask])
		}
		s.acked.clear(h)
		s.rtx.clear(h)
		if s.inFlight.get(h) {
			s.staleFlight++
		}
		s.highestAck = h + 1
		advanced = true
		s.snk.advanced(s, conn)
	}
	if s.staleFlight == 0 {
		s.flightLo = s.highestAck
	}
	if !advanced {
		// Delivery beyond a hole: the receiver emits a duplicate
		// cumulative ACK.
		s.onDupAck()
		return
	}
	s.dupAcks = 0
	if s.inRecovery {
		if s.highestAck >= s.recoverSeq {
			// Full ACK: leave recovery and deflate the window.
			s.inRecovery = false
			s.cwnd = s.ssthresh
		} else {
			// Partial ACK: more holes remain; keep the SACK-style
			// retransmission clock running.
			s.retransmitNextHole()
		}
	}
	if s.snk.finished(s) {
		return
	}
	// Window growth per ACK.
	if !s.inRecovery {
		if s.cwnd < s.ssthresh {
			s.cwnd++ // slow start: +1 per ACK
		} else {
			s.cwnd += s.snk.caIncrease(s)
		}
		s.cwnd = math.Min(s.cwnd, s.cfg.MaxWindow)
	}
	s.send()
}

// onDupAck counts duplicate ACKs; the third triggers fast retransmit.
// During recovery every returning ACK signals a departure from the
// network, clocking out one retransmission of the next known hole —
// SACK-style loss recovery, which (unlike plain NewReno's one hole per
// RTT) survives the mass drops of a slow-start overshoot without
// degenerating to timeouts.
func (s *sender) onDupAck() {
	s.dupAcks++
	switch {
	case s.dupAcks == 3 && !s.inRecovery:
		s.res.FastRecoveries++
		s.inRecovery = true
		s.recoverSeq = s.nextSeq
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = s.ssthresh
		// Start the episode with a clean rtx set. Slots below highestAck
		// were cleared by the advance loop; stale bits from the previous
		// episode can only live in [highestAck, maxSent).
		for q := s.highestAck; q < s.maxSent; q++ {
			s.rtx.clear(q)
		}
		s.rtxCursor = s.highestAck
		s.retransmitNextHole()
	case s.inRecovery:
		s.retransmitNextHole()
	}
	s.armRTO()
}

// retransmitNextHole resends the lowest hole not yet retransmitted in this
// recovery episode; with no hole left it lets new data flow instead.
func (s *sender) retransmitNextHole() {
	if s.rtxCursor < s.highestAck {
		s.rtxCursor = s.highestAck
	}
	for s.rtxCursor < s.recoverSeq {
		seq := s.rtxCursor
		s.rtxCursor++
		if !s.acked.get(seq) && !s.rtx.get(seq) {
			s.rtx.set(seq)
			s.transmit(seq) // counted as a retransmit there (seq < maxSent)
			return
		}
	}
	s.send()
}

// armRTO moves the retransmission deadline. With nothing outstanding
// (every transmitted segment acked) the deadline disarms; the next
// transmit re-arms it. The heap event is scheduled at most once per
// chase — never cancelled — so per-ACK re-arming costs no heap traffic.
func (s *sender) armRTO() {
	if s.highestAck >= s.maxSent {
		s.rtoAt = math.Inf(1)
		return
	}
	s.rtoAt = s.eng.Now() + s.rto()
	if !s.rtoArmed || s.rtoAt < s.rtoEvAt {
		// Unarmed, or the deadline moved ahead of the pending event:
		// that event would fire late, so replace it.
		s.rtoEv.Cancel()
		s.rtoEv = s.eng.Schedule(s.rtoAt, s.rtoFn)
		s.rtoEvAt = s.rtoAt
		s.rtoArmed = true
	}
}

// rtoEvent chases the logical deadline: if ACKs moved it later since this
// event was scheduled, re-schedule at the current deadline; only an event
// that lands on the live deadline is a real timeout.
func (s *sender) rtoEvent() {
	s.rtoArmed = false
	if s.rtoAt > s.eng.Now() || (s.pipeArmed && s.pipe[s.pipeHead].ackAt <= s.eng.Now()) {
		// Deadline moved later — or an ACK shares this very timestamp.
		// The scalar model re-arms its timer after every burst, so its
		// timeout event is always the youngest in the heap and loses
		// (time, seq) ties to any pending ACK; yield likewise by
		// re-entering the heap behind the pipe's event.
		if !math.IsInf(s.rtoAt, 1) {
			s.rtoEv = s.eng.Schedule(s.rtoAt, s.rtoFn)
			s.rtoEvAt = s.rtoAt
			s.rtoArmed = true
		}
		return
	}
	s.onRTO()
}

// onRTO retransmits from the cumulative point after a timeout and
// collapses the window. Each resent segment is counted by transmit.
func (s *sender) onRTO() {
	if s.highestAck >= s.maxSent {
		return
	}
	s.res.Timeouts++
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = 1
	s.inRecovery = false
	s.dupAcks = 0
	// Everything in the network is presumed lost — the scalar model wipes
	// its whole inFlight map, stale copies below the cumulative point
	// included. Live bits span [flightLo, maxSent).
	for q := s.flightLo; q < s.maxSent; q++ {
		s.inFlight.clear(q)
	}
	s.inFlightCount = 0
	s.staleFlight = 0
	s.flightLo = s.highestAck
	s.nextSeq = s.highestAck
	s.send()
}

// flow is a single-flow transfer: the sender with an identity data source.
type flow struct {
	sender
	totalSegs int
}

// next hands out segments 0..totalSegs-1 in order; connection sequence and
// subflow sequence coincide.
func (f *flow) next(s *sender) int {
	if s.nextSeq >= f.totalSegs {
		return -1
	}
	return s.nextSeq
}

func (f *flow) advanced(*sender, int) {}

func (f *flow) finished(s *sender) bool {
	if s.highestAck < f.totalSegs {
		return false
	}
	s.res.FinishedAt = s.eng.Now()
	s.rtoAt = math.Inf(1)
	s.eng.Stop()
	return true
}

func (f *flow) caIncrease(s *sender) float64 { return 1 / s.cwnd }

var flowPool = sync.Pool{New: func() any { return new(flow) }}

// Run transfers size bytes over the link and returns the result. The
// engine's Horizon (if set) bounds the run. Flow state is pooled: repeated
// runs (fresh or Reset engines) allocate nothing in steady state.
func Run(eng *sim.Engine, cfg Config, link Link, size units.ByteSize) Result {
	if cfg.MSS <= 0 || cfg.InitialWindow <= 0 || link.Rate <= 0 || link.QueuePackets <= 0 {
		panic("ptcp: invalid configuration")
	}
	f := flowPool.Get().(*flow)
	f.totalSegs = int(math.Ceil(float64(size) / float64(cfg.MSS)))
	f.sender.reset(eng, cfg, link, f, false)
	f.send()
	eng.Run()
	res := f.res
	res.Completed = f.highestAck >= f.totalSegs
	res.Delivered = units.ByteSize(f.highestAck) * cfg.MSS
	if res.Delivered > size {
		res.Delivered = size
	}
	flowPool.Put(f)
	return res
}
