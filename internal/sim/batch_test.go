package sim

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestPeekNextEmpty(t *testing.T) {
	e := New()
	if _, _, ok := e.PeekNext(); ok {
		t.Error("PeekNext on empty engine reported a pending event")
	}
}

func TestPeekNextReportsMinAndDrainsDead(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	ev.Cancel()
	before := e.Pending()
	at, seq, ok := e.PeekNext()
	if !ok || at != 2 {
		t.Fatalf("PeekNext = (%v, %d, %v), want live event at t=2", at, seq, ok)
	}
	if e.Pending() >= before {
		t.Errorf("PeekNext left the dead head queued: pending %d, was %d", e.Pending(), before)
	}
	// Peek must not fire or pop the live head.
	if at2, _, ok2 := e.PeekNext(); !ok2 || at2 != 2 {
		t.Errorf("second PeekNext = (%v, %v), want (2, true)", at2, ok2)
	}
}

// DeferAt must consume the same sequence number a real Schedule would, so
// committed slots interleave with ordinary events exactly as if they had
// been scheduled eagerly.
func TestDeferAtReservesSequence(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(5, func() { order = append(order, 1) }) // seq 0
	d := e.DeferAt(5)                                  // seq 1
	e.Schedule(5, func() { order = append(order, 3) }) // seq 2
	e.CommitDeferred(d, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// DeferAt's time rules match Schedule's: the current instant is allowed,
// +Inf reserves nothing (no sequence number, no schedule trace), and NaN
// or a time in the past panics.
func TestDeferAtTimeSemantics(t *testing.T) {
	e := New()
	e.Schedule(3, func() {})
	e.Run() // now = 3, next seq 1
	rec := &countRecorder{}
	e.SetRecorder(rec)

	if d := e.DeferAt(math.Inf(1)); !math.IsInf(d.At(), 1) {
		t.Errorf("infinite time deferred at %v, want +Inf", d.At())
	}
	if rec.counts[trace.KindSchedule] != 0 {
		t.Errorf("a +Inf slot recorded %d schedule events, want 0", rec.counts[trace.KindSchedule])
	}
	e.Schedule(4, func() {})
	if _, seq, _ := e.PeekNext(); seq != 1 {
		t.Errorf("next Schedule drew seq %d after a +Inf slot, want 1 (nothing reserved)", seq)
	}
	if d := e.DeferAt(3); d.At() != 3 {
		t.Errorf("slot at the current instant deferred at %v, want 3", d.At())
	}

	for _, at := range []Time{math.NaN(), 2.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DeferAt(%v) at now=3 did not panic", at)
				}
			}()
			e.DeferAt(at)
		}()
	}
}

func TestCommitDeferredDropsInfinite(t *testing.T) {
	e := New()
	d := e.DeferAt(math.Inf(1))
	e.CommitDeferred(d, func() { t.Error("infinite slot fired") })
	if e.Pending() != 0 {
		t.Errorf("pending = %d after committing +Inf slot, want 0", e.Pending())
	}
	if e.TryFireInline(d) {
		t.Error("TryFireInline fired a +Inf slot")
	}
}

// An accepted inline fire advances the clock to the slot and emits exactly
// the one fire trace event Step would.
func TestInlineFireAdvancesClockAndTraces(t *testing.T) {
	e := New()
	rec := &countRecorder{}
	e.SetRecorder(rec)

	d := e.DeferAt(2)
	if rec.counts[trace.KindSchedule] != 1 {
		t.Fatalf("schedule events = %d, want 1 from DeferAt", rec.counts[trace.KindSchedule])
	}
	if !e.TryFireInline(d) {
		t.Fatal("TryFireInline = false with an empty queue")
	}
	if e.Now() != 2 {
		t.Errorf("now = %v after inline fire, want 2", e.Now())
	}
	if rec.counts[trace.KindFire] != 1 {
		t.Errorf("fire events = %d, want 1", rec.counts[trace.KindFire])
	}

	d2 := e.DeferAt(3)
	if !e.TryFireInline(d2) {
		t.Fatal("TryFireInline = false for a second slot on an empty queue")
	}
	if e.Now() != 3 {
		t.Errorf("now = %v after the second inline fire, want 3", e.Now())
	}
	if rec.counts[trace.KindFire] != 2 || rec.counts[trace.KindSchedule] != 2 {
		t.Errorf("fire/schedule events = %d/%d, want 2/2",
			rec.counts[trace.KindFire], rec.counts[trace.KindSchedule])
	}
}

func TestInlineFireRefusedWhenNotNext(t *testing.T) {
	e := New()
	e.Schedule(1, func() {}) // earlier live event
	d := e.DeferAt(2)
	if e.TryFireInline(d) {
		t.Error("TryFireInline fired ahead of an earlier event")
	}
	if e.Now() != 0 {
		t.Errorf("refused inline fire moved the clock to %v", e.Now())
	}
}

// Same fire time: the earlier sequence number wins, matching heap FIFO.
func TestInlineFireSequenceTieBreak(t *testing.T) {
	e := New()
	e.Schedule(2, func() {}) // seq 0
	d := e.DeferAt(2)        // seq 1
	if e.TryFireInline(d) {
		t.Error("inline fire won a same-time tie against an earlier sequence")
	}

	e2 := New()
	d2 := e2.DeferAt(2)       // seq 0
	e2.Schedule(2, func() {}) // seq 1
	if !e2.TryFireInline(d2) {
		t.Error("TryFireInline lost a same-time tie it should win (earlier seq)")
	}
}

func TestInlineFireRespectsStop(t *testing.T) {
	e := New()
	d := e.DeferAt(1)
	e.Stop()
	if e.TryFireInline(d) {
		t.Error("TryFireInline fired on a stopped engine")
	}
}

func TestInlineFireRespectsHorizon(t *testing.T) {
	e := New()
	e.Horizon = 5
	if d := e.DeferAt(4); !e.TryFireInline(d) {
		t.Error("inline fire refused inside the horizon")
	}
	d := e.DeferAt(e.Now() + 10)
	if e.TryFireInline(d) {
		t.Error("TryFireInline fired past the horizon")
	}
}

// A dead heap top may conservatively refuse an inline fire, but committing
// the slot and running normally must still produce the right order.
func TestTryFireInlineConservativeOnDeadTop(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() { t.Error("cancelled event fired") })
	ev.Cancel()
	d := e.DeferAt(2)
	// The dead entry at t=1 precedes d, so the raw-top probe refuses.
	if e.TryFireInline(d) {
		t.Fatal("TryFireInline fired across a dead-but-undrained top")
	}
	fired := false
	e.CommitDeferred(d, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("committed slot never fired")
	}
	if e.Now() != 2 {
		t.Errorf("final time = %v, want 2", e.Now())
	}
}

// RunUntil(t) must keep the batcher from coalescing the clock past t:
// a deferred slot past the bound is refused inline even when it is the
// next event, and stays queued for the next RunUntil window.
func TestInlineFireRespectsRunUntilBound(t *testing.T) {
	e := New()
	var inside bool
	firedAt := Time(-1)
	e.Schedule(1, func() {
		d := e.DeferAt(e.Now() + 5) // t=6, past the RunUntil(3) bound
		inside = e.TryFireInline(d)
		e.CommitDeferred(d, func() { firedAt = e.Now() })
	})
	e.RunUntil(3)
	if inside {
		t.Error("inline fire crossed a RunUntil bound")
	}
	if e.Now() != 3 {
		t.Errorf("now = %v after RunUntil(3), want 3", e.Now())
	}
	if firedAt != -1 {
		t.Fatalf("deferred slot fired at %v inside the bounded window", firedAt)
	}
	// The bound must lift once RunUntil returns.
	e.RunUntil(10)
	if firedAt != 6 {
		t.Errorf("deferred slot fired at %v, want 6 in the next window", firedAt)
	}
}

// After RunUntil returns, plain Run must allow inline fires again: the
// limit is restored, not left at the last bound.
func TestRunUntilRestoresInlineLimit(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.RunUntil(2)
	d := e.DeferAt(e.Now() + 5) // t=7, past the old bound
	if !e.TryFireInline(d) {
		t.Error("TryFireInline still bounded after RunUntil returned")
	}
}

// A full deferred cycle (reserve, inline-fire) must allocate nothing, with
// and without a recorder attached: the fast path exists to avoid the heap
// round-trip, so an allocation would defeat it.
func TestInlineFireAllocFree(t *testing.T) {
	e := New()
	allocs := testing.AllocsPerRun(200, func() {
		d := e.DeferAt(e.Now() + 1)
		if !e.TryFireInline(d) {
			t.Fatal("inline fire refused on an empty queue")
		}
	})
	if allocs != 0 {
		t.Errorf("defer/inline-fire cycle allocates %.1f per op, want 0", allocs)
	}

	e.SetRecorder(trace.NewJSONL(trace.AllKinds, 1024))
	allocs = testing.AllocsPerRun(200, func() {
		d := e.DeferAt(e.Now() + 1)
		if !e.TryFireInline(d) {
			t.Fatal("traced inline fire refused on an empty queue")
		}
	})
	if allocs != 0 {
		t.Errorf("traced defer/inline-fire cycle allocates %.1f per op, want 0", allocs)
	}
}

// Equivalence: an After+Run schedule and a DeferAt+inline/commit batch
// produce identical fire orders and identical trace streams for a mix of
// inline-able and refused slots.
func TestDeferredMatchesScheduledTrace(t *testing.T) {
	run := func(batched bool) ([]trace.Event, []int) {
		e := New()
		rec := &sliceRecorder{}
		e.SetRecorder(rec)
		var order []int
		e.Schedule(1, func() {
			if batched {
				d := e.DeferAt(e.Now() + 1)
				if !e.TryFireInline(d) {
					t.Fatal("slot at t=2 should fire inline")
				}
				order = append(order, 2)
				// Next slot collides with the t=3 event below and must
				// lose the tie (later seq), falling back to the heap.
				d = e.DeferAt(e.Now() + 1)
				if e.TryFireInline(d) {
					t.Fatal("slot at t=3 should lose the tie")
				}
				e.CommitDeferred(d, func() { order = append(order, 4) })
			} else {
				e.After(1, func() {
					order = append(order, 2)
					e.After(1, func() { order = append(order, 4) })
				})
			}
		})
		e.Schedule(3, func() { order = append(order, 3) })
		e.Run()
		return rec.events, order
	}
	batchedEvents, batchedOrder := run(true)
	plainEvents, plainOrder := run(false)
	if len(batchedOrder) != len(plainOrder) {
		t.Fatalf("order length: batched %v, plain %v", batchedOrder, plainOrder)
	}
	for i := range plainOrder {
		if batchedOrder[i] != plainOrder[i] {
			t.Fatalf("fire order: batched %v, plain %v", batchedOrder, plainOrder)
		}
	}
	if len(batchedEvents) != len(plainEvents) {
		t.Fatalf("trace length: batched %d, plain %d", len(batchedEvents), len(plainEvents))
	}
	for i := range plainEvents {
		if batchedEvents[i] != plainEvents[i] {
			t.Fatalf("trace event %d: batched %+v, plain %+v", i, batchedEvents[i], plainEvents[i])
		}
	}
}

// sliceRecorder captures the full event stream for equality checks.
type sliceRecorder struct{ events []trace.Event }

func (s *sliceRecorder) Record(ev trace.Event) { s.events = append(s.events, ev) }
