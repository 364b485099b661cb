package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestScheduleDuringRun(t *testing.T) {
	e := New()
	var hits []Time
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.After(2, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Errorf("hits = %v, want [1 3]", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at NaN did not panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestAfterNegativeClamps(t *testing.T) {
	e := New()
	e.Schedule(2, func() {
		e.After(-5, func() {
			if e.Now() != 2 {
				t.Errorf("negative-delay event fired at %v, want 2", e.Now())
			}
		})
	})
	e.Run()
}

func TestAfterInfiniteNeverFires(t *testing.T) {
	e := New()
	ev := e.After(math.Inf(1), func() { t.Error("infinite-delay event fired") })
	if !ev.Cancelled() {
		t.Error("infinite-delay event should be pre-cancelled")
	}
	e.Run()
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop should halt the run)", count)
	}
	// Remaining events still queued.
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestHorizon(t *testing.T) {
	e := New()
	e.Horizon = 10
	var fired []Time
	e.Schedule(5, func() { fired = append(fired, 5) })
	e.Schedule(15, func() { fired = append(fired, 15) })
	end := e.Run()
	if len(fired) != 1 || fired[0] != 5 {
		t.Errorf("fired = %v, want [5]", fired)
	}
	if end != 10 {
		t.Errorf("end = %v, want horizon 10", end)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want first three", fired)
	}
	if e.Now() != 3 {
		t.Errorf("now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v, want all five", fired)
	}
	if e.Now() != 10 {
		t.Errorf("now = %v, want 10 (clock advances to target)", e.Now())
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	ev.Cancel()
	fired := false
	e.Schedule(2, func() { fired = true })
	e.RunUntil(5)
	if !fired {
		t.Error("live event after cancelled head did not fire")
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []Time
	tk := e.Tick(1, func() {
		ticks = append(ticks, e.Now())
	})
	e.Schedule(4.5, func() { tk.Stop() })
	e.Run()
	want := []Time{1, 2, 3, 4}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopFromOwnCallback(t *testing.T) {
	e := New()
	n := 0
	var tk *Ticker
	tk = e.Tick(1, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestTickBadIntervalPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("Tick(0) did not panic")
		}
	}()
	e.Tick(0, func() {})
}

// Property: any multiset of schedule times fires in nondecreasing order.
func TestOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 100
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaving Schedule and Step preserves the clock's monotonicity.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := New()
		last := Time(0)
		for _, r := range raw {
			e.After(float64(r)/10, func() {})
		}
		for e.Step() {
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: Cancel on an already-fired event must be a true no-op. It
// used to mark the free-listed node dead, ghost-cancelling whatever event
// reused the slot next.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	if !e.Step() {
		t.Fatal("event did not fire")
	}
	if ev.Cancelled() {
		t.Error("fired event must not report Cancelled")
	}
	ev.Cancel() // late cancel of a fired handle
	if ev.Cancelled() {
		t.Error("Cancel after fire must not stick to the stale handle")
	}
	// The freed node is reused by the next Schedule; the late Cancel above
	// must not have poisoned it.
	fired := false
	ev2 := e.Schedule(2, func() { fired = true })
	if ev2.Cancelled() {
		t.Fatal("recycled event born cancelled: stale Cancel leaked onto reused node")
	}
	ev.Cancel() // still stale, still a no-op
	e.Run()
	if !fired {
		t.Error("recycled event did not fire after stale Cancel")
	}
}

// Regression: RunUntil(t) with t past a positive Horizon used to advance
// the clock to t via the tail clamp, violating the horizon bound.
func TestRunUntilClampsToHorizon(t *testing.T) {
	e := New()
	e.Horizon = 5
	fired := false
	e.Schedule(10, func() { fired = true })
	if got := e.RunUntil(8); got != 5 {
		t.Errorf("RunUntil(8) = %v, want horizon 5", got)
	}
	if e.Now() != 5 {
		t.Errorf("now = %v, want clamped to horizon 5", e.Now())
	}
	if fired {
		t.Error("event past horizon fired")
	}
	// Targets within the horizon are unaffected.
	if got := e.RunUntil(3); got != 5 {
		t.Errorf("RunUntil(3) after clamp = %v, want 5 (clock never rewinds)", got)
	}
}
