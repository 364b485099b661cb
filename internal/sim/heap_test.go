package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapRandomizedOrdering drives the inlined 4-ary heap through a large
// randomized schedule and checks events fire in (time, seq) order.
func TestHeapRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New()
	var want []float64
	var got []float64
	for i := 0; i < 5000; i++ {
		at := float64(rng.Intn(1000)) / 10
		want = append(want, at)
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestHeapFIFOTieBreakInterleaved checks the seq tie-break survives
// interleaving same-time schedules with other heap traffic.
func TestHeapFIFOTieBreakInterleaved(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
		// Unrelated churn around the tied timestamp.
		e.Schedule(float64(i%5)+1, func() {})
		e.Schedule(9, func() {})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

// TestCancelSemantics pins the handle semantics of the pooled events:
// cancel-before-fire suppresses the callback, cancel-after-fire is a
// no-op, and a stale handle never cancels the node's next tenant.
func TestCancelSemantics(t *testing.T) {
	e := New()
	fired := 0
	ev1 := e.Schedule(1, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if ev1.Cancelled() {
		t.Error("a fired event must not report Cancelled")
	}
	// ev1's node is now on the free list; this schedule reuses it.
	ev2 := e.Schedule(2, func() { fired++ })
	ev1.Cancel() // stale handle: must not touch ev2's node
	if ev2.Cancelled() {
		t.Fatal("stale Cancel leaked onto the recycled node")
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (recycled event must fire)", fired)
	}

	// Double cancel is a no-op; Cancelled stays true until the node is
	// recycled.
	ev3 := e.Schedule(3, func() { fired++ })
	ev3.Cancel()
	ev3.Cancel()
	e.Run()
	if fired != 2 {
		t.Errorf("cancelled event fired (fired = %d)", fired)
	}
	if !ev3.Cancelled() {
		t.Error("Cancelled() = false after drain of a cancelled event")
	}

	// The zero handle is inert.
	var zero Event
	zero.Cancel()
	if !zero.Cancelled() {
		t.Error("zero-value handle should report Cancelled (never fires)")
	}
}

// TestNodePoolReuse verifies the free list actually recycles: a long
// schedule/fire chain must not grow the node arena or the heap beyond the
// live event count.
func TestNodePoolReuse(t *testing.T) {
	e := New()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 1000 {
			e.After(1, chain)
		}
	}
	e.After(1, chain)
	e.Run()
	if n != 1000 {
		t.Fatalf("chain fired %d times, want 1000", n)
	}
	if len(e.nodes) != 1 {
		t.Errorf("node arena grew to %d for a 1-deep chain, want 1", len(e.nodes))
	}

	// Cancelled events are recycled once drained, too.
	for i := 0; i < 100; i++ {
		e.Schedule(e.Now()+1, func() {}).Cancel()
		e.Step()
	}
	if len(e.nodes) > 2 {
		t.Errorf("node arena grew to %d under cancel churn, want ≤ 2", len(e.nodes))
	}
}

// TestScheduleSteadyStateAllocFree is the acceptance guard for the
// allocation-free kernel: a schedule/fire cycle with a pre-built closure
// must not allocate once the arena is warm.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the arena and heap.
	for i := 0; i < 8; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule/fire allocates %v times per op, want 0", allocs)
	}
}

// TestManyPendingThenDrain exercises sift-down paths with a deep heap.
func TestManyPendingThenDrain(t *testing.T) {
	e := New()
	const n = 4096
	fired := 0
	for i := n; i > 0; i-- {
		e.Schedule(float64(i), func() { fired++ })
	}
	if e.Pending() != n {
		t.Fatalf("pending = %d, want %d", e.Pending(), n)
	}
	last := Time(-1)
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
	}
	if fired != n {
		t.Errorf("fired = %d, want %d", fired, n)
	}
}

func TestResetReusesArena(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 32; i++ {
		e.Schedule(float64(i), fn)
	}
	ev := e.Schedule(100, fn)
	e.RunUntil(10)
	e.Reset()

	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d", e.Now(), e.Pending())
	}
	// Handles from before the reset are stale: Cancel must not touch the
	// recycled node.
	ev.Cancel()

	// A run on the reset engine behaves like one on a fresh engine and
	// allocates nothing once the arena is warm.
	var order []Time
	e.Schedule(2, func() { order = append(order, e.Now()) })
	e.Schedule(1, func() { order = append(order, e.Now()) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}

	e.Reset()
	if got := testing.AllocsPerRun(100, func() {
		e.Reset()
		e.Schedule(1, fn)
		e.Step()
	}); got != 0 {
		t.Fatalf("reset+schedule+step allocated %.1f times", got)
	}
}
