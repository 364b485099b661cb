package scenario

import (
	"testing"

	"repro/internal/runcache"
)

// TestRunCacheDuplicateKeepsFirst stores a key while another call of it
// is computing: the later store is a duplicate, and its caller gets the
// Result stored first. The memo's other tests are in internal/runcache.
func TestRunCacheDuplicateKeepsFirst(t *testing.T) {
	c := NewRunCache()
	k := runcache.Key{3}
	got := c.Do(k, func() Result {
		if r := c.Do(k, func() Result { return Result{Switches: 1} }); r.Switches != 1 {
			t.Errorf("inner call got %d, want its own 1", r.Switches)
		}
		return Result{Switches: 2}
	})
	if got.Switches != 1 {
		t.Fatalf("outer call got %d, want the first stored 1", got.Switches)
	}
	if h, m, d := c.FlightStats(); h != 0 || m != 2 || d != 1 || len(c.m) != 1 {
		t.Fatalf("stats = (%d hits, %d misses, %d duplicates, %d entries), want (0, 2, 1, 1)", h, m, d, len(c.m))
	}
}
