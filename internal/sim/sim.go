// Package sim implements the discrete-event simulation kernel underlying
// the eMPTCP reproduction.
//
// The kernel is a classic event-list simulator: a priority queue of
// timestamped events, a virtual clock that jumps from event to event, and
// cancellable timers. Simulated time is float64 seconds; the kernel is
// single-threaded and deterministic, which keeps every experiment exactly
// reproducible from its seed. (Whole runs are embarrassingly parallel —
// internal/runner fans independent engines across cores — but one engine
// is never shared between goroutines.)
//
// The event queue is an inlined 4-ary min-heap over small value entries,
// and event state lives in a free-listed node arena, so steady-state
// scheduling performs no allocations: a schedule/fire cycle reuses the
// node and heap slot freed by the previous one.
//
// Tickers live beside the heap, not in it: each armed Ticker holds its
// own (time, seq) slot in a short engine-owned list, and every dispatcher
// (Step, RunUntil, PeekNext, TryFireInline) takes whichever of the heap
// top and the earliest ticker comes first under the (time, seq) order.
// Arming draws the sequence number and emits the schedule trace a heap
// re-arm would, so dispatch order and traces are those of a ticker that
// re-arms itself through After. A deferred slot (the batch-window
// contract, see Deferred) can therefore run inline through meter and
// controller ticks: TryFireInline fires a ticker that precedes the slot
// in place and checks again.
package sim

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Time is a point in simulated time, in seconds since the start of the run.
type Time = float64

// node is the engine-owned state of one scheduled event. Nodes are pooled:
// after an event fires, its generation is bumped immediately — so handles
// to fired events go stale at once and a late Cancel is a true no-op —
// and the node returns to the free list. A cancelled entry keeps its
// generation until its drained node is reused, so Cancelled keeps
// answering true in the meantime.
type node struct {
	fn   func()
	gen  uint32
	dead bool
}

// entry is one heap element. Entries are values, never boxed, so heap
// operations allocate nothing.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	idx int32  // index into Engine.nodes
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Event is a cancellable handle to a scheduled callback. The zero value is
// a valid "never scheduled" handle: Cancel is a no-op and Cancelled reports
// true. Handles are values; copying one copies the reference.
type Event struct {
	eng *Engine
	at  Time
	idx int32
	gen uint32
}

// At returns the time the event fires (or fired).
func (e Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e Event) Cancel() {
	if e.eng == nil {
		return
	}
	n := &e.eng.nodes[e.idx]
	if n.gen == e.gen && !n.dead {
		n.dead = true
		if e.eng.rec != nil {
			e.eng.rec.Record(trace.Event{T: e.eng.now, Kind: trace.KindCancel})
		}
	}
}

// Cancelled reports whether the event will never fire because it was
// cancelled (or was never schedulable, like an infinite-delay timer). An
// event that already fired reports false.
func (e Event) Cancelled() bool {
	if e.eng == nil {
		return true
	}
	n := &e.eng.nodes[e.idx]
	return n.gen == e.gen && n.dead
}

// Engine is the simulation driver. The zero value is not usable; call New.
type Engine struct {
	now     Time
	heap    []entry
	nodes   []node
	free    []int32
	seq     uint64
	running bool
	stopped bool
	rec     trace.Recorder
	// tickers holds the armed Tickers, in no order; tnext is the one that
	// fires first under (at, seq), nil when none is armed. The list is
	// short (a run arms two to four), so disarming scans it.
	tickers []*Ticker
	tnext   *Ticker
	// limit bounds inline (batched) firing while RunUntil is active:
	// RunUntil(t) must leave events past t queued, and the batcher must
	// not coalesce the clock past t either. +Inf when no bound applies.
	limit Time
	// Horizon, when positive, bounds simulated time: Run returns once the
	// next event would fire past it.
	Horizon Time
}

// New returns an Engine with the clock at zero.
func New() *Engine {
	return &Engine{limit: math.Inf(1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetRecorder attaches a trace recorder; nil disables tracing. The
// models built on the engine (tcp, mptcp, core) emit through Recorder,
// so attaching one here instruments the whole simulation.
func (e *Engine) SetRecorder(r trace.Recorder) { e.rec = r }

// Recorder returns the attached trace recorder, or nil when tracing is
// disabled. Emission sites must guard with a nil check:
//
//	if rec := eng.Recorder(); rec != nil { rec.Record(...) }
func (e *Engine) Recorder() trace.Recorder { return e.rec }

// Pending returns how many events are queued: heap entries (including
// cancelled ones not yet drained) plus armed tickers.
func (e *Engine) Pending() int { return len(e.heap) + len(e.tickers) }

// push adds an entry to the 4-ary heap, sifting up.
func (e *Engine) push(it entry) {
	h := append(e.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// pop removes and returns the minimum entry, sifting the last element down.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if entryLess(h[j], h[m]) {
					m = j
				}
			}
			if !entryLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// alloc takes a node from the free list (bumping its generation so stale
// handles miss) or grows the arena.
func (e *Engine) alloc(fn func()) int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		nd := &e.nodes[idx]
		nd.gen++
		nd.fn = fn
		nd.dead = false
		return idx
	}
	e.nodes = append(e.nodes, node{fn: fn})
	return int32(len(e.nodes) - 1)
}

// release returns a node to the free list, dropping its callback so the
// closure can be collected. For fired nodes the caller bumps the
// generation first (stale handles must miss immediately); for drained
// cancelled nodes the generation is kept until reuse, so the node keeps
// answering Cancelled()=true in the meantime.
func (e *Engine) release(idx int32) {
	e.nodes[idx].fn = nil
	e.free = append(e.free, idx)
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it is always a logic error in a causal simulation.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if math.IsNaN(at) {
		panic("sim: scheduling at NaN time")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, e.now))
	}
	idx := e.alloc(fn)
	e.push(entry{at: at, seq: e.seq, idx: idx})
	e.seq++
	if e.rec != nil {
		e.rec.Record(trace.Event{T: e.now, Kind: trace.KindSchedule, A: at})
	}
	return Event{eng: e, at: at, idx: idx, gen: e.nodes[idx].gen}
}

// After queues fn to run delay seconds from now. Negative delays are
// clamped to zero (fire "immediately", after already-queued same-time
// events). Infinite delays are never scheduled and return a pre-cancelled
// event.
func (e *Engine) After(delay float64, fn func()) Event {
	if math.IsInf(delay, 1) {
		return Event{at: math.Inf(1)}
	}
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to the state of New while keeping the node
// arena, heap, free-list and ticker-list capacity, so a pooled engine
// re-runs without regrowing kernel state. Event handles and Tickers from
// before the reset are stale afterwards: node generations are bumped and
// every ticker is dropped, so using them is a no-op, exactly like
// handles to fired events. Only the (at, seq) pair orders
// events — node indices and ticker-list positions never do — so a run on
// a reset engine is bit-identical to one on a fresh engine.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset during Run")
	}
	e.heap = e.heap[:0]
	e.free = e.free[:0]
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.fn = nil
		nd.gen++
		nd.dead = false
		e.free = append(e.free, int32(i))
	}
	for i, t := range e.tickers {
		t.armed = false
		e.tickers[i] = nil
	}
	e.tickers = e.tickers[:0]
	e.tnext = nil
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.rec = nil
	e.Horizon = 0
	e.limit = math.Inf(1)
}

// PeekNext reports the (time, sequence) of the next live event — the heap
// top or the earliest armed ticker, whichever comes first — without firing
// it. Dead (cancelled) entries at the top of the heap are drained on the
// way, exactly as Step would drain them. ok is false when no live event is
// pending.
func (e *Engine) PeekNext() (at Time, seq uint64, ok bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.nodes[top.idx].dead {
			e.pop()
			e.release(top.idx)
			continue
		}
		at, seq, ok = top.at, top.seq, true
		break
	}
	if t := e.tnext; t != nil && (!ok || t.before(at, seq)) {
		return t.at, t.seq, true
	}
	return at, seq, ok
}

// Deferred is a reserved event slot: a fire time plus the sequence number
// a real Schedule call at reservation time would have consumed. It lets a
// hot loop (the TCP round batcher) decide after the fact whether to run
// the callback inline (TryFireInline) or fall back to the heap
// (CommitDeferred), while keeping event ordering — which depends only on
// (time, seq) pairs — bit-identical to the unbatched schedule/fire cycle.
// This is the batch-window contract: a caller may run a deferred callback
// inline exactly when the engine itself would have dispatched it next.
type Deferred struct {
	at  Time
	seq uint64
}

// At returns the reserved fire time.
func (d Deferred) At() Time { return d.at }

// DeferAt reserves the next sequence number for a callback at absolute
// time at and emits the same schedule trace event a real Schedule would,
// but touches no heap or node state. Time semantics match Schedule
// (scheduling into the past panics); a +Inf time reserves nothing and the
// slot can never fire. The tcp round batcher reserves each round's
// completion at Now()+duration; the packet-level engine's ACK-train
// coalescer reserves consecutive ACK arrival times, iterated in exact
// float arithmetic, so the reservation carries those exact bits.
func (e *Engine) DeferAt(at Time) Deferred {
	if math.IsNaN(at) {
		panic("sim: deferring at NaN time")
	}
	if math.IsInf(at, 1) {
		return Deferred{at: math.Inf(1)}
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: deferring into the past: at=%v now=%v", at, e.now))
	}
	d := Deferred{at: at, seq: e.seq}
	e.seq++
	if e.rec != nil {
		e.rec.Record(trace.Event{T: e.now, Kind: trace.KindSchedule, A: at})
	}
	return d
}

// TryFireInline reports whether the deferred slot is exactly the event the
// engine would dispatch next and, if so, advances the clock to it and
// emits the fire trace event; the caller then runs the callback body
// itself. The slot must be strictly ahead of the heap top under the
// (time, seq) order, inside the Horizon and any RunUntil bound, and the
// engine not stopped. An armed ticker that precedes the slot does not
// refuse it: the ticker is fired in place, exactly as Step would fire it
// (clock, fire trace, callback, re-arm), and the checks run again, so a
// batch runs through meter and controller ticks. When TryFireInline
// returns false the caller must CommitDeferred and let the ordinary Run
// loop take over.
func (e *Engine) TryFireInline(d Deferred) bool {
	for {
		// d.at > MaxFloat64 rejects the +Inf never-firable slot; d.at is
		// never NaN (DeferAt panics on NaN).
		if e.stopped || d.at > e.limit || d.at > math.MaxFloat64 {
			return false
		}
		if h := e.Horizon; h > 0 && d.at > h {
			return false
		}
		if len(e.heap) > 0 {
			// Compare against the raw heap top without draining cancelled
			// entries: if d precedes even a dead top it precedes every
			// heap entry, and if a dead top precedes d the refusal is
			// merely conservative (the slot goes back to the heap and Step
			// drains as usual). Skipping the liveness lookup keeps the
			// probe free of the dependent nodes[] load. Sequence numbers
			// are unique, so top either strictly precedes d or strictly
			// follows it.
			top := e.heap[0]
			if top.at < d.at || (top.at == d.at && top.seq < d.seq) {
				return false
			}
		}
		t := e.tnext
		if t == nil || !t.before(d.at, d.seq) {
			break
		}
		// The ticker precedes d, which precedes every heap entry, and
		// d's bounds hold for the earlier ticker too: it is the engine's
		// next dispatch. Its callback may stop the engine, move the
		// horizon or schedule earlier events, hence the loop.
		e.fireTicker(t)
	}
	e.now = d.at
	if e.rec != nil {
		e.rec.Record(trace.Event{T: e.now, Kind: trace.KindFire})
	}
	return true
}

// CommitDeferred schedules the deferred slot into the event heap under
// its reserved sequence number. No second schedule trace event is
// emitted — DeferAt already recorded it. A +Inf slot is dropped, matching
// After.
func (e *Engine) CommitDeferred(d Deferred, fn func()) {
	if math.IsInf(d.at, 1) {
		return
	}
	idx := e.alloc(fn)
	e.push(entry{at: d.at, seq: d.seq, idx: idx})
}

// Step fires the single next event, advancing the clock. It returns false
// when nothing is pending or the next event lies past the horizon.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		nd := &e.nodes[top.idx]
		if nd.dead {
			e.pop()
			e.release(top.idx)
			continue
		}
		if t := e.tnext; t != nil && t.before(top.at, top.seq) {
			break // a ticker comes first
		}
		if e.Horizon > 0 && top.at > e.Horizon {
			// Advance the clock to the horizon so callers measuring
			// elapsed time see a full window.
			e.now = e.Horizon
			return false
		}
		e.pop()
		fn := nd.fn
		// The event is now committed to fire: bump the generation so any
		// handle to it goes stale immediately — a later Cancel is a true
		// no-op and Cancelled reports false, rather than marking the
		// free-listed node dead and ghost-cancelling a reused slot.
		nd.gen++
		// Release before firing: the callback may schedule, and reusing
		// this node immediately keeps the steady state allocation-free.
		e.release(top.idx)
		e.now = top.at
		if e.rec != nil {
			e.rec.Record(trace.Event{T: e.now, Kind: trace.KindFire})
		}
		fn()
		return true
	}
	t := e.tnext
	if t == nil {
		return false
	}
	if e.Horizon > 0 && t.at > e.Horizon {
		e.now = e.Horizon
		return false
	}
	e.fireTicker(t)
	return true
}

// Run processes events until the queue drains, Stop is called, or the
// horizon is reached. It returns the final simulated time.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil processes events until time t (inclusive), leaving later events
// queued. It returns the simulated time afterwards, which is t if the
// queue outlived it. A positive Horizon still bounds the clock: the
// target is clamped to it, so RunUntil never advances past the horizon.
func (e *Engine) RunUntil(t Time) Time {
	if e.Horizon > 0 && t > e.Horizon {
		t = e.Horizon
	}
	prev := e.limit
	e.limit = t
	defer func() { e.limit = prev }()
	for {
		at, _, ok := e.PeekNext()
		if !ok || at > t {
			break
		}
		if !e.Step() {
			break
		}
		if e.stopped {
			return e.now
		}
	}
	if e.now < t {
		e.now = t
	}
	return e.now
}

// Ticker invokes fn every interval seconds until stopped. The first tick
// fires one interval from the time Tick is created.
//
// An armed ticker sits beside the event heap in the engine's ticker list
// (see the package doc), so arming and firing it touch neither the heap
// nor the node arena.
type Ticker struct {
	eng      *Engine
	fn       func()
	interval float64
	at       Time   // fire time of the pending tick, while armed
	seq      uint64 // sequence number drawn when armed
	armed    bool
	stopped  bool
}

// Tick starts a recurring callback. Interval must be positive.
func (e *Engine) Tick(interval float64, fn func()) *Ticker {
	if interval <= 0 || math.IsNaN(interval) {
		panic("sim: Tick interval must be positive")
	}
	t := &Ticker{eng: e, interval: interval, fn: fn}
	t.arm()
	return t
}

// before reports whether the ticker's pending tick precedes the slot
// (at, seq) under the engine's (time, seq) order.
func (t *Ticker) before(at Time, seq uint64) bool {
	return t.at < at || (t.at == at && t.seq < seq)
}

// arm reserves the next tick one interval from now: the sequence number
// and schedule trace event of After(interval). Like After, an infinite
// interval reserves nothing and the ticker never fires again.
func (t *Ticker) arm() {
	if math.IsInf(t.interval, 1) {
		return
	}
	e := t.eng
	t.at = e.now + t.interval
	t.seq = e.seq
	e.seq++
	t.armed = true
	e.tickers = append(e.tickers, t)
	if n := e.tnext; n == nil || t.before(n.at, n.seq) {
		e.tnext = t
	}
	if e.rec != nil {
		e.rec.Record(trace.Event{T: e.now, Kind: trace.KindSchedule, A: t.at})
	}
}

// disarm removes an armed ticker from the list and, when it was the
// earliest, finds the new earliest.
func (e *Engine) disarm(t *Ticker) {
	t.armed = false
	l := e.tickers
	for i, u := range l {
		if u == t {
			last := len(l) - 1
			l[i] = l[last]
			l[last] = nil
			e.tickers = l[:last]
			break
		}
	}
	if e.tnext != t {
		return
	}
	e.tnext = nil
	for _, u := range e.tickers {
		if n := e.tnext; n == nil || u.before(n.at, n.seq) {
			e.tnext = u
		}
	}
}

// fireTicker dispatches t's pending tick exactly as Step dispatches a heap
// event (clock, fire trace, callback) and then re-arms it unless the
// callback stopped it. Re-arming after the callback draws the sequence
// number after any the callback drew, as a re-arm through After would.
func (e *Engine) fireTicker(t *Ticker) {
	e.disarm(t)
	e.now = t.at
	if e.rec != nil {
		e.rec.Record(trace.Event{T: e.now, Kind: trace.KindFire})
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels the ticker. The callback will not fire again. Stopping an
// armed ticker emits the cancel trace event Event.Cancel would; stopping
// it from its own callback, or stopping it twice, emits nothing.
func (t *Ticker) Stop() {
	t.stopped = true
	if !t.armed {
		return
	}
	e := t.eng
	e.disarm(t)
	if e.rec != nil {
		e.rec.Record(trace.Event{T: e.now, Kind: trace.KindCancel})
	}
}

// Interval returns the ticker period in seconds.
func (t *Ticker) Interval() float64 { return t.interval }
