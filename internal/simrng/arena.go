package simrng

import "math/rand"

// Arena recycles Source allocations across pooled runs. A Source carries a
// ~4.9 kB state vector, and a run splits off one child stream per subflow,
// link process, and workload — the dominant per-run allocation once engines
// and subflows are pooled (95% of allocated bytes in the mobility
// benchmark's heap profile). An arena-rooted Source hands the arena down to
// every child it splits, so a pooled run re-seeds recycled generators
// instead of allocating fresh ones.
//
// Reusing a slot only re-seeds the lagged-Fibonacci state, in constant
// time: each state word is derived when the new stream first reads it, so
// the previous run's words are overwritten before they are read (see
// lfsource.go). The embedded rand.Rand already wraps the slot's own
// generator and is stateless beyond it, so a recycled Source's streams
// are bit-identical to a fresh one's.
//
// An Arena is single-run-at-a-time: Reset hands out the same Sources
// again, so it must only be called once nothing from the previous run will
// draw again (the RunState pool guarantees this).
type Arena struct {
	items []*Source
	next  int
}

// Reset makes all recycled Sources available again.
func (a *Arena) Reset() { a.next = 0 }

// New returns a Source seeded with seed, drawn from the arena and rooted
// in it (children split from it come from the arena too).
func (a *Arena) New(seed int64) *Source {
	var s *Source
	if a.next < len(a.items) {
		s = a.items[a.next]
	} else {
		s = &Source{}
		s.rng = rand.New(&s.lf)
		a.items = append(a.items, s)
	}
	a.next++
	s.arena = a
	s.lf.Seed(seed)
	return s
}
