// Package lockstep executes k replications of one scenario — same
// environment, different seeds — as lanes of a single structure-of-arrays
// pass, amortising the event-kernel control flow that a scalar
// scenario.Run pays per replication.
//
// A fluid-round run inside the lockstep envelope (constant links, file
// workloads, the uncontrolled protocols) has a statically tiny event
// vocabulary: one power-monitor tick, one pending handshake or round-end
// timer per subflow, and the min-RTT scheduler's deferred kick wakeups.
// Each lane therefore carries its own miniature dispatcher — a (time,
// sequence) slot per event kind, with the sequence counter advanced in
// exactly the order the scalar engine's After calls would draw it — and
// the executor advances all live lanes in waves over lane-striped state:
// a simrng.LaneSources bank for the RNG streams and a tcp.LaneVec for the
// congestion variables. Every arithmetic expression, RNG draw, and
// callback ordering is the scalar code path's, so per-seed Results are
// bit-identical to sequential scenario.Run calls
// (FuzzLockstepEquivalence).
//
// Lane-divergence handling is peel-by-replay: a lane whose setup leaves
// the envelope (a non-constant link process, a zero-rate path, a builder
// that schedules events) is handed back to the scalar path — the peeled
// seed simply runs through scenario.Run while the remaining lanes
// continue batched. Inside the envelope no mid-run peel is possible: the
// capacity processes are constant, subflows never suspend, and the
// receive window is unlimited, so the scalar run could execute no event
// this dispatcher does not model.
package lockstep

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/energy"
	"repro/internal/link"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/tcp"
	"repro/internal/units"
	"repro/internal/workload"
)

// Lane/peel counters, exposed through Stats for emptcpsim -v and the
// campaign progress report (which assert the lockstep path actually
// executed).
var (
	nLaneRuns atomic.Int64
	nPeels    atomic.Int64
)

// Stats returns how many replications executed as lockstep lanes and how
// many were peeled off to the scalar path.
func Stats() (lanes, peels int64) {
	return nLaneRuns.Load(), nPeels.Load()
}

// meterInterval mirrors scenario's power-monitor sampling period.
const meterInterval = 0.1

// defaultHorizon mirrors scenario's bound on never-completing workloads.
const defaultHorizon = 14400

// bulkSize mirrors workload.Bulk's effectively-infinite transfer.
const bulkSize units.ByteSize = 1 << 40

// Eligible reports whether (sc, proto, opt) is inside the lockstep
// envelope: an uncontrolled protocol (no eMPTCP/MDP/association
// machinery), a single-connection file workload with a positive size, no
// in-line observers, and a library scenario (a cache key exists, so the
// link builders are the library's and per-seed results can be memoized).
// Whether each individual lane stays batched is decided at setup by
// probing the built link processes; ineligible lanes peel to scenario.Run.
func Eligible(sc scenario.Scenario, proto scenario.Protocol, opt scenario.Opts) bool {
	switch proto {
	case scenario.TCPWiFi, scenario.TCPLTE, scenario.MPTCP:
	default:
		return false
	}
	if opt.Trace || opt.Recorder != nil {
		return false
	}
	if _, _, ok := workShape(sc.Work); !ok {
		return false
	}
	if _, ok := scenario.CacheKey(sc, proto, opt); !ok {
		return false
	}
	return true
}

// workShape extracts the single transfer an eligible workload launches.
func workShape(w workload.Workload) (size units.ByteSize, uplink bool, ok bool) {
	switch w := w.(type) {
	case workload.FileDownload:
		return w.Size, false, w.Size > 0
	case workload.FileUpload:
		return w.Size, true, w.Size > 0
	case workload.Bulk:
		return bulkSize, false, true
	}
	return 0, false, false
}

// Run executes one replication batch — len(seeds) runs of (sc, proto)
// differing only in seed — and returns one Result per seed, each
// bit-identical to scenario.Run(sc, proto, opt-with-that-seed). The
// caller must have checked Eligible. With opt.Cache set, seeds are
// memoized individually under their scalar cache keys: a fully-cached
// batch never simulates, and a partially-cached one simulates the whole
// batch once (recomputing k lanes costs less than fragmenting the
// stripe).
func Run(sc scenario.Scenario, proto scenario.Protocol, seeds []int64, opt scenario.Opts) []scenario.Result {
	return RunAppend(nil, sc, proto, seeds, opt)
}

// RunAppend is Run appending into dst (reused by the alloc-guard tests
// and the campaign shard loop).
func RunAppend(dst []scenario.Result, sc scenario.Scenario, proto scenario.Protocol, seeds []int64, opt scenario.Opts) []scenario.Result {
	base := len(dst)
	if cap(dst) < base+len(seeds) {
		dst = append(dst, make([]scenario.Result, len(seeds))...)
	} else {
		dst = dst[:base+len(seeds)]
	}
	out := dst[base:]
	if opt.Cache == nil {
		runBatch(out, sc, proto, seeds, opt)
		return dst
	}
	// Per-seed memoization over one lazily-computed batch: the batch
	// simulates inside the first missing seed's Do, so a fully-cached
	// batch never fires it. The seeds share a scenario, so it is hashed
	// once and each seed's key is one RunKey over that base.
	var (
		once  sync.Once
		batch []scenario.Result
	)
	compute := func() {
		batch = make([]scenario.Result, len(seeds))
		runBatch(batch, sc, proto, seeds, opt)
	}
	scKey, scOK := scenario.BaseKey(sc)
	for i, seed := range seeds {
		o := opt
		o.Seed = seed
		k, ok := scenario.RunKey(scKey, proto, o)
		if !scOK || !ok {
			out[i] = scenario.Run(sc, proto, o)
			continue
		}
		idx := i
		out[i] = opt.Cache.Do(k, func() scenario.Result {
			once.Do(compute)
			return batch[idx]
		})
	}
	return dst
}

// Lane event kinds: what the per-lane slot dispatcher can fire.
const (
	evNone  = iota
	evEst   // handshake completion (scalar established)
	evRound // round end (scalar roundState.end / finishRound)
)

// kickEv is one deferred scheduler wakeup (the After the min-RTT rule
// arms in connSource.Request).
type kickEv struct {
	at  float64
	seq uint64
	sub int
}

// maxKicks bounds the outstanding deferred wakeups per lane. At most one
// can be pending per subflow — a deferral leaves its subflow idle, and
// only the kick firing (or a one-shot establish/enqueue) can issue that
// subflow's next Request — so two subflows need two slots; the rest is
// margin for the impossible.
const maxKicks = 4

// lane is the cold per-replication state: the miniature dispatcher,
// connection counters, and metering accumulators. Hot congestion state
// lives in the batch's tcp.LaneVec stripes instead.
type lane struct {
	seed   int64
	peeled bool
	done   bool

	now float64
	seq uint64

	tickAt  float64
	tickSeq uint64

	subEv     [2]uint8
	subAt     [2]float64
	subSeq    [2]uint64
	roundDur  [2]float64
	roundLost [2]bool

	kicks  [maxKicks]kickEv
	nKicks int

	rate     [2]units.BitRate // capacity share per subflow (constant, 1 flow/path)
	wifiRate units.BitRate    // the WiFi process rate, metered even when unused

	queued    units.ByteSize
	taken     units.ByteSize
	delivered units.ByteSize
	complete  float64
	stopped   bool

	deliveredIf [energy.NumInterfaces]units.ByteSize
	meterLast   [energy.NumInterfaces]units.ByteSize
	uplinkedIf  [energy.NumInterfaces]units.ByteSize
	meterLastUp [energy.NumInterfaces]units.ByteSize
	lteTouched  bool

	acct *energy.Accountant
}

// batch is the pooled executor state for one Run call.
type batch struct {
	sc    scenario.Scenario
	proto scenario.Protocol

	k       int
	nSub    int
	coupled bool
	uplink  bool
	size    units.ByteSize
	horizon float64
	cfg     tcp.Config
	iface   [2]energy.Interface
	baseRTT [2]float64
	weakNom units.BitRate

	rng   *simrng.LaneSources
	vec   tcp.LaneVec
	lanes []lane

	probeEng   *sim.Engine
	probeArena simrng.Arena
}

var batchPool = &sync.Pool{New: func() any { return new(batch) }}

// Lane-stripe layout in the RNG bank: per lane, the root stream (the
// run's Split parent), the connection stream (subflow-seed derivation),
// and one stream per subflow (handshake and per-round jitter draws).
func (b *batch) rootIdx(lane int) int     { return lane }
func (b *batch) connIdx(lane int) int     { return b.k + lane }
func (b *batch) subIdx(sub, lane int) int { return (2+sub)*b.k + lane }
func (b *batch) vecIdx(sub, lane int) int { return sub*b.k + lane }

// runBatch simulates all seeds, writing one Result per seed into out.
func runBatch(out []scenario.Result, sc scenario.Scenario, proto scenario.Protocol, seeds []int64, opt scenario.Opts) {
	b := batchPool.Get().(*batch)
	defer batchPool.Put(b)
	b.prepare(sc, proto, len(seeds))

	for i, seed := range seeds {
		l := &b.lanes[i]
		if !b.setupLane(l, i, seed) {
			l.peeled = true
			l.done = true
		}
	}
	b.drive()

	for i := range b.lanes {
		l := &b.lanes[i]
		if l.peeled {
			nPeels.Add(1)
			out[i] = scenario.Run(sc, proto, scenario.Opts{Seed: l.seed})
		} else {
			nLaneRuns.Add(1)
			out[i] = b.collect(l)
		}
	}
}

// drive runs the lockstep wave loop to quiescence: one event per live
// lane per pass, touching the striped state in lane order.
func (b *batch) drive() {
	live := 0
	for i := range b.lanes {
		if !b.lanes[i].done {
			live++
		}
	}
	for live > 0 {
		for i := range b.lanes {
			l := &b.lanes[i]
			if !l.done {
				b.stepLane(l, i)
				if l.done {
					live--
				}
			}
		}
	}
}

// prepare shapes the pooled state for one (scenario, protocol, k) batch.
func (b *batch) prepare(sc scenario.Scenario, proto scenario.Protocol, k int) {
	size, uplink, ok := workShape(sc.Work)
	if !ok {
		panic("lockstep: ineligible workload (call Eligible first)")
	}
	b.sc = sc
	b.proto = proto
	b.k = k
	b.size = size
	b.uplink = uplink
	b.cfg = tcp.DefaultConfig()
	b.coupled = proto == scenario.MPTCP
	switch proto {
	case scenario.TCPWiFi:
		b.nSub = 1
		b.iface[0] = energy.WiFi
		b.baseRTT[0] = sc.WiFiRTT
	case scenario.TCPLTE:
		b.nSub = 1
		b.iface[0] = energy.LTE
		b.baseRTT[0] = sc.LTERTT
	case scenario.MPTCP:
		b.nSub = 2
		b.iface[0] = energy.WiFi
		b.baseRTT[0] = sc.WiFiRTT
		b.iface[1] = energy.LTE
		b.baseRTT[1] = sc.LTERTT
	default:
		panic("lockstep: ineligible protocol (call Eligible first)")
	}
	b.horizon = sc.Horizon
	if b.horizon <= 0 {
		b.horizon = defaultHorizon
	}
	b.weakNom = sc.Device.Radios[energy.WiFi].WeakSignalNominal

	if b.rng == nil {
		b.rng = simrng.NewLaneSources(4 * k)
	} else {
		b.rng.Resize(4 * k)
	}
	b.vec.Resize(b.nSub, k)
	if cap(b.lanes) < k {
		b.lanes = make([]lane, k)
	} else {
		b.lanes = b.lanes[:k]
	}
	if b.probeEng == nil {
		b.probeEng = sim.New()
	}
	for i := range b.lanes {
		acct := b.lanes[i].acct
		b.lanes[i] = lane{acct: acct}
	}
}

// setupLane replicates scenario launch for one lane at t=0: accountant
// session state, link construction (probed for envelope membership),
// the power-monitor ticker arm, and the protocol's connection wiring —
// consuming the root, connection, and subflow RNG streams and the lane
// sequence counter in exactly the scalar order. It reports false when
// the lane must peel.
func (b *batch) setupLane(l *lane, lane int, seed int64) bool {
	l.seed = seed
	l.complete = math.NaN()
	b.rng.Seed(b.rootIdx(lane), seed)
	if !b.probeLane(l, lane) {
		return false
	}
	b.armLane(l, lane)
	return true
}

// probeLane builds the lane's link processes with real child sources
// derived exactly as launch's Splits would, and decides envelope
// membership: both processes constant, nothing scheduled on the engine,
// and every used path able to carry data (the dead-path timeout round is
// scalar-only). On success the lane's capacity shares are recorded.
func (b *batch) probeLane(l *lane, lane int) bool {
	root := b.rootIdx(lane)
	wifiSeed := b.rng.SplitSeed(root, 0xaa)
	lteSeed := b.rng.SplitSeed(root, 0xbb)
	b.probeEng.Reset()
	b.probeArena.Reset()
	wifiProc := b.sc.WiFi(b.probeEng, b.probeArena.New(wifiSeed))
	lteProc := b.sc.LTE(b.probeEng, b.probeArena.New(lteSeed))
	cw, okW := wifiProc.(*link.Constant)
	cl, okL := lteProc.(*link.Constant)
	if !okW || !okL || b.probeEng.Pending() != 0 {
		return false
	}
	l.wifiRate = cw.Rate()
	lteRate := cl.Rate()
	switch b.proto {
	case scenario.TCPWiFi:
		l.rate[0] = l.wifiRate
	case scenario.TCPLTE:
		l.rate[0] = lteRate
	default:
		l.rate[0] = l.wifiRate
		l.rate[1] = lteRate
	}
	for s := 0; s < b.nSub; s++ {
		if l.rate[s] <= 0 {
			return false
		}
	}
	return true
}

// armLane replicates the rest of scenario launch for a probed lane at
// t=0: accountant session state, the power-monitor ticker arm, and the
// protocol's connection wiring — consuming the root, connection, and
// subflow RNG streams and the lane sequence counter in the scalar order.
func (b *batch) armLane(l *lane, lane int) {
	root := b.rootIdx(lane)
	if acct := l.acct; acct == nil {
		l.acct = energy.NewAccountant(b.sc.Device)
	} else {
		acct.Reset(b.sc.Device)
	}
	l.acct.SetExtraBase(b.sc.AppPower)
	l.acct.SetSessionActive(true)

	// eng.Tick(meterInterval, flushMeter): first arm at t=0.
	l.tickAt = meterInterval
	l.tickSeq = l.seq
	l.seq++

	// Work.Launch(eng, src.Split(0xcc), ...): the split draw happens at
	// argument evaluation; the file workloads never draw from the child.
	_ = b.rng.SplitSeed(root, 0xcc)

	// openConn: conn := mptcp.New(eng, src.Split(0xd0), opts).
	conn := b.connIdx(lane)
	b.rng.Seed(conn, b.rng.SplitSeed(root, 0xd0))

	// Protocol wiring. radioControl.Activate's flushMeter is a no-op at
	// t=0 (dt == 0); the radio Activate calls are replicated verbatim so
	// promotion delays and dwell accounting match.
	switch b.proto {
	case scenario.TCPWiFi:
		l.acct.Radio(energy.WiFi).Activate(0)
		b.connectSub(l, lane, 0, 0x5f, 0)
	case scenario.TCPLTE:
		l.lteTouched = true
		readyAt := l.acct.Radio(energy.LTE).Activate(0)
		b.connectSub(l, lane, 0, 0x5f, math.Max(0, readyAt))
	default: // MPTCP
		l.acct.Radio(energy.WiFi).Activate(0)
		b.connectSub(l, lane, 0, 0x5f, 0)
		l.lteTouched = true
		readyAt := l.acct.Radio(energy.LTE).Activate(0)
		b.connectSub(l, lane, 1, 0x60, math.Max(0, readyAt))
	}

	// conn.Download(size, done) → Enqueue: queue the one request.
	// kickAll is a no-op — every subflow is still Connecting.
	l.queued = b.size
}

// connectSub replicates AddSubflow + Connect for subflow sub: derive the
// subflow stream from the connection stream, draw the handshake RTT, and
// arm the establishment timer.
func (b *batch) connectSub(l *lane, lane, sub int, label uint64, extraDelay float64) {
	si := b.subIdx(sub, lane)
	b.rng.Seed(si, b.rng.SplitSeed(b.connIdx(lane), label))
	i := b.vecIdx(sub, lane)
	b.vec.State[i] = tcp.Connecting
	hs := b.rng.Jitter(si, b.baseRTT[sub], b.cfg.RTTJitter)
	b.vec.HsRTT[i] = hs
	l.subEv[sub] = evEst
	l.subAt[sub] = extraDelay + hs
	l.subSeq[sub] = l.seq
	l.seq++
}

// stepLane dispatches the lane's single next event under the (time,
// sequence) order, or retires the lane when the next event is past the
// horizon or the workload completed.
func (b *batch) stepLane(l *lane, lane int) {
	const (
		dTick = -1
		dKick = -2
	)
	bestAt, bestSeq := l.tickAt, l.tickSeq
	which := dTick
	kickIdx := -1
	for s := 0; s < b.nSub; s++ {
		if l.subEv[s] == evNone {
			continue
		}
		if l.subAt[s] < bestAt || (l.subAt[s] == bestAt && l.subSeq[s] < bestSeq) {
			bestAt, bestSeq = l.subAt[s], l.subSeq[s]
			which = s
		}
	}
	for ki := 0; ki < l.nKicks; ki++ {
		kv := &l.kicks[ki]
		if kv.at < bestAt || (kv.at == bestAt && kv.seq < bestSeq) {
			bestAt, bestSeq = kv.at, kv.seq
			which = dKick
			kickIdx = ki
		}
	}
	if bestAt > b.horizon {
		l.now = b.horizon
		l.done = true
		return
	}
	l.now = bestAt
	switch which {
	case dTick:
		b.flushMeter(l)
		// Ticker re-arm: fn first, then the next After draws a sequence.
		l.tickSeq = l.seq
		l.seq++
		l.tickAt += meterInterval
	case dKick:
		sub := l.kicks[kickIdx].sub
		copy(l.kicks[kickIdx:l.nKicks-1], l.kicks[kickIdx+1:l.nKicks])
		l.nKicks--
		b.laneKick(l, lane, sub)
	default:
		s := which
		l.subEv[s] = evNone
		b.fireSub(l, lane, s)
	}
	if l.stopped {
		l.done = true
	}
}

// fireSub fires subflow s's pending timer: establishment or round end.
func (b *batch) fireSub(l *lane, lane, s int) {
	i := b.vecIdx(s, lane)
	if b.vec.State[i] == tcp.Connecting {
		// established(): state transition then Kick.
		b.vec.Establish(i, l.now, &b.cfg)
		b.laneKick(l, lane, s)
		return
	}
	// finishRound: close the round, update the window, deliver, and (via
	// laneStartRound) open the next round.
	dur, lost := l.roundDur[s], l.roundLost[s]
	n := b.vec.RoundSRTT(i, l.now, dur)
	inc := 0.0
	if !lost && b.vec.Cwnd[i] >= b.vec.Ssthresh[i] {
		if b.coupled {
			inc = b.vec.LIAIncrease(i, lane, b.nSub)
		} else {
			inc = 1
		}
	}
	b.vec.ApplyWindow(i, lost, inc, &b.cfg)
	// Delivered: meter the bytes and fire the request completion.
	l.delivered += n
	ifc := b.iface[s]
	if b.uplink {
		l.uplinkedIf[ifc] += n
	} else {
		l.deliveredIf[ifc] += n
	}
	if !l.stopped && l.delivered >= l.queued-1e-6 {
		// done(at): complete and stop. The scalar path still runs the
		// trailing startRound, but with the engine stopped none of its
		// effects (request bookkeeping, RNG draws, a reserved event that
		// never fires) can reach the Result — so the lane skips it.
		l.complete = l.now
		l.stopped = true
		return
	}
	b.laneStartRound(l, lane, s)
}

// laneKick replicates Subflow.Kick.
func (b *batch) laneKick(l *lane, lane, s int) {
	i := b.vecIdx(s, lane)
	if b.vec.State[i] != tcp.Established || b.vec.InRound[i] {
		return
	}
	b.vec.IdleReset(i, l.now, &b.cfg)
	b.laneStartRound(l, lane, s)
}

// laneStartRound replicates Subflow.startRound inside the envelope
// (share > 0, loss probability exactly 0).
func (b *batch) laneStartRound(l *lane, lane, s int) {
	i := b.vecIdx(s, lane)
	want := b.vec.Want(i, &b.cfg)
	n := b.laneRequest(l, lane, s, want)
	if n <= 0 {
		return
	}
	b.vec.BeginRound(i, n)
	share := l.rate[s]
	rtt := b.rng.Jitter(b.subIdx(s, lane), b.baseRTT[s], b.cfg.RTTJitter)
	congested, dur := b.vec.RoundPlan(n, rtt, share)
	l.roundLost[s] = congested
	l.roundDur[s] = dur
	l.subEv[s] = evRound
	l.subAt[s] = l.now + dur
	l.subSeq[s] = l.seq
	l.seq++
}

// laneRequest replicates connSource.Request with an unlimited receive
// buffer: hand out queued bytes, or defer to a faster peer when data is
// scarce (kicking the peer synchronously, then arming this subflow's
// wakeup one peer-SRTT later).
func (b *batch) laneRequest(l *lane, lane, s int, want units.ByteSize) units.ByteSize {
	avail := l.queued - l.taken
	if avail <= 0 {
		return 0
	}
	if avail < want {
		if best := b.preferredSub(l, lane); best >= 0 && best != s &&
			b.vec.Srtt[b.vecIdx(best, lane)] < b.vec.Srtt[b.vecIdx(s, lane)] {
			b.laneKick(l, lane, best)
			if l.nKicks >= maxKicks {
				panic("lockstep: deferred-kick overflow (impossible inside the envelope)")
			}
			// Parenthesised exactly as the scalar After(bestSRTT+1e-3):
			// now + (srtt + 1e-3) rounds differently from left-to-right.
			l.kicks[l.nKicks] = kickEv{
				at:  l.now + (b.vec.Srtt[b.vecIdx(best, lane)] + 1e-3),
				seq: l.seq,
				sub: s,
			}
			l.seq++
			l.nKicks++
			return 0
		}
	}
	n := want
	if n > avail {
		n = avail
	}
	l.taken += n
	return n
}

// preferredSub replicates Connection.preferredSubflow: the established
// subflow with the strictly lowest smoothed RTT, in creation order.
// Envelope lanes never suspend and every path rate is positive.
func (b *batch) preferredSub(l *lane, lane int) int {
	best := -1
	for s := 0; s < b.nSub; s++ {
		i := b.vecIdx(s, lane)
		if b.vec.State[i] != tcp.Established {
			continue
		}
		if best < 0 || b.vec.Srtt[i] < b.vec.Srtt[b.vecIdx(best, lane)] {
			best = s
		}
	}
	return best
}

// flushMeter replicates run.flushMeter: advance the lane's accountant to
// now with the throughput observed since the last flush.
func (b *batch) flushMeter(l *lane) {
	now := l.now
	dt := now - l.acct.Now()
	if dt <= 0 {
		return
	}
	var thr energy.Throughputs
	for i := 0; i < energy.NumInterfaces; i++ {
		deltaDown := l.deliveredIf[i] - l.meterLast[i]
		l.meterLast[i] = l.deliveredIf[i]
		deltaUp := l.uplinkedIf[i] - l.meterLastUp[i]
		l.meterLastUp[i] = l.uplinkedIf[i]
		if deltaDown <= 0 && deltaUp <= 0 {
			continue
		}
		if deltaDown > 0 {
			thr.Down[i] = units.BitRate(deltaDown.Bits() / dt)
		}
		if deltaUp > 0 {
			thr.Up[i] = units.BitRate(deltaUp.Bits() / dt)
		}
		if l.acct.Radio(energy.Interface(i)).State() == energy.Idle {
			l.acct.Radio(energy.Interface(i)).Activate(l.acct.Now())
		}
	}
	if b.weakNom > 0 {
		l.acct.Radio(energy.WiFi).SetQuality(float64(l.wifiRate) / float64(b.weakNom))
	}
	l.acct.Advance(now, thr)
}

// collect replicates run.collect for one lane.
func (b *batch) collect(l *lane) scenario.Result {
	b.flushMeter(l)
	completed := !math.IsNaN(l.complete)
	if completed {
		l.acct.Drain()
	}
	res := scenario.Result{
		Protocol:       b.proto,
		Completed:      completed,
		CompletionTime: l.complete,
		Elapsed:        l.now,
		Energy:         l.acct.Total(),
		BaseEnergy:     l.acct.BaseEnergy(),
		LTEUsed:        l.lteTouched || l.acct.InterfaceEnergy(energy.LTE) > 0,
	}
	for i := 0; i < energy.NumInterfaces; i++ {
		res.ByIface[i] = l.acct.InterfaceEnergy(energy.Interface(i))
		res.Downloaded += l.deliveredIf[i]
		res.Uploaded += l.uplinkedIf[i]
	}
	if moved := res.Downloaded + res.Uploaded; moved > 0 {
		res.JPerByte = res.Energy.PerByte(moved)
	} else {
		res.JPerByte = math.Inf(1)
	}
	res.BatteryPct = b.sc.Device.BatteryFraction(res.Energy) * 100
	return res
}
