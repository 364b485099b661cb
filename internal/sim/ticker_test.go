package sim

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// heapTicker is the reference ticker: the kernel's ticker as it was when
// every tick went through the event heap, re-arming itself with After
// after each callback. Engine.Tick must match it fire for fire and trace
// event for trace event.
type heapTicker struct {
	eng      *Engine
	interval float64
	fn       func()
	tick     func()
	ev       Event
	stopped  bool
}

func newHeapTicker(e *Engine, interval float64, fn func()) *heapTicker {
	t := &heapTicker{eng: e, interval: interval, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *heapTicker) arm() { t.ev = t.eng.After(t.interval, t.tick) }

func (t *heapTicker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// ticker is the surface the scripts drive on both implementations.
type ticker interface {
	Stop()
}

// Fire-log tags: which kind of callback fired.
const (
	logTick uint64 = iota + 1
	logShot
	logChain
)

const (
	scriptMaxTickers = 12
	scriptMaxFires   = 4000
)

// tickWorld runs one script on one engine. Callbacks draw their actions
// from acts through a cursor, so two worlds that dispatch the same
// callbacks in the same order take the same actions; any divergence shows
// up in the fire log or the trace.
type tickWorld struct {
	e     *Engine
	rec   *sliceRecorder
	heap  bool // tickers are heapTickers (the reference)
	acts  []byte
	cur   int
	tks   []ticker
	evs   []Event
	log   []uint64 // (tag<<32 | id, clock bits) pairs
	fires int
}

func newTickWorld(heap bool, acts []byte) *tickWorld {
	w := &tickWorld{e: New(), rec: &sliceRecorder{}, heap: heap, acts: acts}
	w.e.SetRecorder(w.rec)
	return w
}

func (w *tickWorld) next() byte {
	if len(w.acts) == 0 {
		return 0
	}
	b := w.acts[w.cur%len(w.acts)]
	w.cur++
	return b
}

// scriptInterval maps a byte to a ticker period: eighths of a second
// (exact binary values, so ticks tie with each other and with one-shots),
// tenths (the meter's 0.1 s, which accumulates rounding), or, rarely, +Inf.
func scriptInterval(b byte) float64 {
	if b == 0xff {
		return math.Inf(1)
	}
	k := float64(b>>1%16 + 1)
	if b&1 == 0 {
		return k / 8
	}
	return k / 10
}

// scriptDelay maps a byte to a one-shot delay in [0, 2.875] s; zero delays
// land on the current instant, behind everything already queued there.
func scriptDelay(b byte) float64 { return float64(b%24) / 8 }

func (w *tickWorld) fired(tag uint64, id int) {
	w.fires++
	w.log = append(w.log, tag<<32|uint64(id), math.Float64bits(w.e.Now()))
}

func (w *tickWorld) newTicker(interval float64) {
	if len(w.tks) >= scriptMaxTickers {
		return
	}
	id := len(w.tks)
	fn := func() {
		w.fired(logTick, id)
		w.act(id)
	}
	if w.heap {
		w.tks = append(w.tks, newHeapTicker(w.e, interval, fn))
	} else {
		w.tks = append(w.tks, w.e.Tick(interval, fn))
	}
}

func (w *tickWorld) oneShot(delay float64) {
	id := len(w.evs)
	w.evs = append(w.evs, w.e.After(delay, func() {
		w.fired(logShot, id)
		w.act(-1)
	}))
}

// chain runs one deferred slot's body and reserves the next, firing it
// inline while TryFireInline allows and committing it to the heap
// otherwise: the tcp round batcher's loop in miniature.
func (w *tickWorld) chain(id, left int) {
	for {
		w.fired(logChain, id)
		w.act(-1)
		if left == 0 {
			return
		}
		left--
		d := w.e.DeferAt(w.e.Now() + scriptDelay(w.next()>>1))
		if !w.e.TryFireInline(d) {
			rest := left
			w.e.CommitDeferred(d, func() { w.chain(id, rest) })
			return
		}
	}
}

// act is the body of every callback. self is the firing ticker's index,
// or -1 for one-shots and chain slots. Action bytes with no case (0, 3
// and 4) do nothing.
func (w *tickWorld) act(self int) {
	if w.fires > scriptMaxFires {
		return // let the horizon end the run
	}
	switch w.next() % 11 {
	case 1:
		if self >= 0 {
			w.tks[self].Stop()
		}
	case 2:
		if n := len(w.tks); n > 0 {
			w.tks[int(w.next())%n].Stop()
		}
	case 5:
		w.newTicker(scriptInterval(w.next()))
	case 6:
		w.oneShot(scriptDelay(w.next()))
	case 7:
		if n := len(w.evs); n > 0 {
			w.evs[int(w.next())%n].Cancel()
		}
	case 8:
		b := w.next()
		id := len(w.evs)
		w.evs = append(w.evs, w.e.After(scriptDelay(b), func() { w.chain(id, int(b>>5)) }))
	case 9:
		w.e.Stop()
	case 10:
		// Move the horizon, never clearing it: a cleared horizon under
		// Run would tick forever.
		if w.e.Horizon > 0 {
			w.e.Horizon = w.e.Now() + scriptDelay(w.next()) + 0.125
		}
	}
}

// do applies one top-level script operation and returns what it reports,
// for comparison across worlds. Operation 6 does nothing.
func (w *tickWorld) do(op, arg byte) [3]uint64 {
	e := w.e
	switch op % 12 {
	case 0:
		if e.Step() {
			return [3]uint64{1}
		}
	case 1:
		e.Horizon = e.Now() + float64(arg%32+1)/8
		return [3]uint64{math.Float64bits(e.Run())}
	case 2:
		return [3]uint64{math.Float64bits(e.RunUntil(e.Now() + float64(arg%32)/8))}
	case 3:
		at, seq, ok := e.PeekNext()
		if ok {
			return [3]uint64{math.Float64bits(at), seq, 1}
		}
	case 4:
		w.newTicker(scriptInterval(arg))
	case 5:
		if n := len(w.tks); n > 0 {
			w.tks[int(arg)%n].Stop()
		}
	case 7:
		w.oneShot(scriptDelay(arg))
	case 8:
		id := len(w.evs)
		w.evs = append(w.evs, e.After(scriptDelay(arg), func() { w.chain(id, int(arg>>5)) }))
	case 9:
		e.Horizon = 0
		if arg&1 == 1 {
			e.Horizon = e.Now() + float64(arg>>1%16+1)/8
		}
	case 10:
		// Reuse: every ticker and event handle from before goes stale
		// and stays in the script, so later operations poke stale ones.
		e.Reset()
		e.SetRecorder(w.rec)
	case 11:
		e.Stop()
	}
	return [3]uint64{}
}

// runTickerScript drives a ticker world and a heap-ticker world through
// the same script and reports the first difference.
func runTickerScript(t *testing.T, ops, acts []byte) {
	t.Helper()
	got, want := newTickWorld(false, acts), newTickWorld(true, acts)
	for i := 0; i+1 < len(ops) && i < 128; i += 2 {
		g, r := got.do(ops[i], ops[i+1]), want.do(ops[i], ops[i+1])
		if ops[i]%12 == 0 {
			// One Step may run further under ticker slots: a chain runs
			// inline through ticks that stop the reference's chain at
			// the heap. Step the reference on to the same dispatch;
			// it must land there exactly, never past it.
			for len(want.log) < len(got.log) && want.e.Step() {
			}
		}
		if g != r {
			t.Fatalf("op %d (%d, %d) reports %x, heap ticker %x", i/2, ops[i]%12, ops[i+1], g, r)
		}
		if math.Float64bits(got.e.Now()) != math.Float64bits(want.e.Now()) {
			t.Fatalf("op %d (%d, %d): clock %v, heap ticker %v", i/2, ops[i]%12, ops[i+1], got.e.Now(), want.e.Now())
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("fire log has %d entries, heap ticker %d", len(got.log)/2, len(want.log)/2)
	}
	for i := 0; i < len(got.log); i += 2 {
		if got.log[i] != want.log[i] || got.log[i+1] != want.log[i+1] {
			t.Fatalf("fire %d: (%x, %v), heap ticker (%x, %v)", i/2,
				got.log[i], math.Float64frombits(got.log[i+1]), want.log[i], math.Float64frombits(want.log[i+1]))
		}
	}
	ge, we := got.rec.events, want.rec.events
	if len(ge) != len(we) {
		t.Fatalf("trace has %d events, heap ticker %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("trace event %d: %+v, heap ticker %+v", i, ge[i], we[i])
		}
	}
	if got.cur != want.cur {
		t.Fatalf("action cursor %d, heap ticker %d", got.cur, want.cur)
	}
}

// FuzzTickerMatchesHeapTicker checks that tickers beside the heap
// dispatch exactly as tickers re-arming through the heap did: the same
// callbacks at the same clock bits, and the same schedule, fire and
// cancel trace, under random scripts of tickers with several intervals,
// one-shot events, Stop from a ticker's own callback and from others,
// tickers created inside callbacks, deferred-slot chains
// run through TryFireInline, Step, Run, RunUntil, Horizon, Stop, and
// Reset with stale handles poked afterwards.
func FuzzTickerMatchesHeapTicker(f *testing.F) {
	f.Add([]byte{4, 2, 4, 3, 1, 40}, []byte{0})
	f.Add([]byte{4, 0, 4, 1, 8, 0x64, 7, 8, 1, 60, 5, 1, 1, 30}, []byte{0, 1, 3, 7, 5, 4, 6, 2, 8, 0x4a})
	f.Add([]byte{4, 7, 8, 0x85, 8, 0xe3, 2, 20, 3, 0, 0, 0, 0, 0, 10, 0, 4, 7, 5, 0, 1, 20}, []byte{8, 0x61, 0, 6, 3, 1, 2, 1})
	f.Add([]byte{9, 9, 4, 2, 4, 2, 0, 0, 0, 0, 0, 0, 11, 0, 2, 16, 0, 0, 1, 31}, []byte{10, 3, 9, 0, 0, 5, 2, 1, 2})
	f.Add([]byte{4, 0xff, 4, 2, 6, 0xf8, 8, 0x40, 1, 31, 3, 0, 10, 0, 5, 0, 5, 1, 4, 3, 1, 31}, []byte{3, 0xff, 2, 0, 4, 1, 2, 8, 0xe1})
	// Reset with tickers armed, a run with only stale ones, then a fresh
	// ticker on the reused engine.
	f.Add([]byte{4, 2, 4, 5, 1, 8, 10, 0, 1, 16, 4, 4, 1, 8, 5, 0, 5, 2, 0, 0}, []byte{0})
	// One Step whose chain runs inline through a tick the reference's
	// chain stops at.
	f.Add([]byte("8\xe300"), []byte("107"))
	f.Fuzz(func(t *testing.T, ops, acts []byte) {
		runTickerScript(t, ops, acts)
	})
}

// A ticker that precedes a deferred slot does not refuse it: TryFireInline
// fires the tick in place — clock, fire trace, callback, re-arm — and then
// the slot.
func TestTryFireInlineRunsThroughTicker(t *testing.T) {
	e := New()
	rec := &countRecorder{}
	e.SetRecorder(rec)
	var ticks []Time
	e.Tick(0.5, func() { ticks = append(ticks, e.Now()) })
	d := e.DeferAt(1.2)
	if !e.TryFireInline(d) {
		t.Fatal("TryFireInline refused a slot behind only ticks")
	}
	if len(ticks) != 2 || ticks[0] != 0.5 || ticks[1] != 1 {
		t.Errorf("inline ticks at %v, want [0.5 1]", ticks)
	}
	if e.Now() != 1.2 {
		t.Errorf("now = %v, want the slot's 1.2", e.Now())
	}
	// Schedules: the first arm, the slot, two re-arms. Fires: two ticks
	// and the slot.
	if rec.counts[trace.KindSchedule] != 4 || rec.counts[trace.KindFire] != 3 {
		t.Errorf("schedule/fire events = %d/%d, want 4/3",
			rec.counts[trace.KindSchedule], rec.counts[trace.KindFire])
	}
	if at, _, ok := e.PeekNext(); !ok || at != 1.5 {
		t.Errorf("next tick at (%v, %v), want 1.5", at, ok)
	}
}

// A tick that stops the engine, or lands the slot past a new horizon,
// ends the inline run: the slot is refused after the tick.
func TestTryFireInlineRechecksAfterTick(t *testing.T) {
	e := New()
	e.Tick(1, func() { e.Stop() })
	if e.TryFireInline(e.DeferAt(2)) {
		t.Error("slot fired inline after a tick stopped the engine")
	}
	if e.Now() != 1 {
		t.Errorf("now = %v, want the tick's 1", e.Now())
	}

	e2 := New()
	e2.Horizon = 10
	e2.Tick(1, func() { e2.Horizon = 1.5 })
	if e2.TryFireInline(e2.DeferAt(2)) {
		t.Error("slot fired inline past a horizon the tick moved")
	}
}

// Same-time order between a ticker and a deferred slot is the sequence
// order, exactly as between two heap events.
func TestTryFireInlineTickerSequenceTieBreak(t *testing.T) {
	e := New()
	fired := false
	e.Tick(2, func() { fired = true }) // seq 0
	if !e.TryFireInline(e.DeferAt(2)) || !fired {
		t.Error("slot behind a same-time tick with an earlier seq did not fire after it")
	}

	e2 := New()
	d := e2.DeferAt(2) // seq 0
	fired = false
	e2.Tick(2, func() { fired = true }) // seq 1
	if !e2.TryFireInline(d) || fired {
		t.Error("tick with a later seq fired ahead of a same-time slot")
	}
}

// Stop emits the cancel trace only for an armed ticker: not from the
// ticker's own callback, not twice, and not for a ticker dropped by Reset.
func TestTickerStopTrace(t *testing.T) {
	e := New()
	rec := &countRecorder{}
	e.SetRecorder(rec)
	a := e.Tick(1, func() {})
	var b *Ticker
	b = e.Tick(1.5, func() { b.Stop() })
	e.RunUntil(2)
	if rec.counts[trace.KindCancel] != 0 {
		t.Fatalf("cancel events = %d after a self-stop, want 0", rec.counts[trace.KindCancel])
	}
	a.Stop()
	a.Stop()
	if rec.counts[trace.KindCancel] != 1 {
		t.Errorf("cancel events = %d after stopping an armed ticker twice, want 1", rec.counts[trace.KindCancel])
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d with every ticker stopped, want 0", e.Pending())
	}

	c := e.Tick(1, func() { t.Error("ticker fired after Reset") })
	e.Reset()
	e.SetRecorder(rec)
	c.Stop()
	if rec.counts[trace.KindCancel] != 1 {
		t.Errorf("stopping a ticker dropped by Reset recorded a cancel")
	}
	e.Horizon = 5
	e.Run()
}

// Arming, firing and stopping a ticker touch neither the heap nor the
// node arena, so the steady state allocates nothing, traced or not. A
// ticker made, fired and stopped on a reset engine costs only the handle
// Tick returns: Reset keeps the ticker list's capacity.
func TestTickerSteadyStateAllocFree(t *testing.T) {
	for _, traced := range []bool{false, true} {
		e := New()
		if traced {
			e.SetRecorder(trace.NewJSONL(trace.AllKinds, 1024))
		}
		fn := func() {}
		e.Tick(0.1, fn)
		e.Tick(0.25, fn)
		for i := 0; i < 16; i++ {
			e.Step()
		}
		if got := testing.AllocsPerRun(200, func() { e.Step() }); got != 0 {
			t.Errorf("traced=%v: tick fire and re-arm allocated %.1f times", traced, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			if !e.TryFireInline(e.DeferAt(e.Now() + 0.3)) {
				t.Fatal("slot behind ticks refused")
			}
		}); got != 0 {
			t.Errorf("traced=%v: inline fire through ticks allocated %.1f times", traced, got)
		}
		rec := e.Recorder()
		if got := testing.AllocsPerRun(200, func() {
			e.Reset()
			e.SetRecorder(rec)
			tk := e.Tick(0.1, fn)
			e.Step()
			e.Step()
			tk.Stop()
		}); got > 1 {
			t.Errorf("traced=%v: Reset, Tick, two fires and Stop allocated %.1f times, want only the Ticker", traced, got)
		}
	}
}
