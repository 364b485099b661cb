package simrng

import "testing"

// TestLaneSourcesStreamEquality proves every lane of a bank reproduces
// the exact draw sequence of an independent Source with the same seed,
// including under interleaved cross-lane draws and Split derivation. The
// last lane is re-seeded after 400 draws of another seed, as a lane
// re-armed for the next batch is, so a stale word would show there.
func TestLaneSourcesStreamEquality(t *testing.T) {
	const lanes = 8
	b := NewLaneSources(lanes)
	b.Seed(lanes-1, 99)
	for j := 0; j < 400; j++ {
		b.Uint64(lanes - 1)
	}
	refs := make([]*Source, lanes)
	for i := 0; i < lanes; i++ {
		seed := int64(1000*i + 17)
		b.Seed(i, seed)
		refs[i] = New(seed)
	}
	// Round-robin across lanes so any cross-lane state bleed would show.
	for step := 0; step < 2000; step++ {
		for i := 0; i < lanes; i++ {
			ref := refs[i]
			switch step % 5 {
			case 0:
				if got, want := b.Uint64(i), ref.lf.Uint64(); got != want {
					t.Fatalf("lane %d step %d: Uint64 = %d, want %d", i, step, got, want)
				}
			case 1:
				if got, want := b.Float64(i), ref.Float64(); got != want {
					t.Fatalf("lane %d step %d: Float64 = %v, want %v", i, step, got, want)
				}
			case 2:
				if got, want := b.Uniform(i, -3, 9), ref.Uniform(-3, 9); got != want {
					t.Fatalf("lane %d step %d: Uniform = %v, want %v", i, step, got, want)
				}
			case 3:
				if got, want := b.Jitter(i, 0.035, 0.08), ref.Jitter(0.035, 0.08); got != want {
					t.Fatalf("lane %d step %d: Jitter = %v, want %v", i, step, got, want)
				}
			case 4:
				label := uint64(step) * 0x9e37
				child := ref.Split(label)
				seed := b.SplitSeed(i, label)
				if got, want := New(seed).Float64(), child.Float64(); got != want {
					t.Fatalf("lane %d step %d: SplitSeed child = %v, want %v", i, step, got, want)
				}
			}
		}
	}
}

// TestLaneSourcesNoDrawCases checks the draw-free fast paths match
// Source: Jitter with frac<=0 and Bernoulli at the clamps must not
// advance the stream.
func TestLaneSourcesNoDrawCases(t *testing.T) {
	b := NewLaneSources(1)
	b.Seed(0, 42)
	ref := New(42)
	if got := b.Jitter(0, 1.5, 0); got != 1.5 {
		t.Fatalf("Jitter(v, 0) = %v, want 1.5", got)
	}
	if b.Bernoulli(0, 0) {
		t.Fatal("Bernoulli(0) = true")
	}
	if !b.Bernoulli(0, 1) {
		t.Fatal("Bernoulli(1) = false")
	}
	// Stream untouched: the next draw matches the reference's first.
	if got, want := b.Float64(0), ref.Float64(); got != want {
		t.Fatalf("stream advanced by no-draw cases: %v != %v", got, want)
	}
}

// TestLaneSourcesResize checks shrink-and-regrow within capacity reuses
// the backing array and keeps surviving lanes independent.
func TestLaneSourcesResize(t *testing.T) {
	b := NewLaneSources(4)
	b.Seed(0, 1)
	b.Seed(1, 2)
	b.Uint64(0)
	b.Resize(2)
	b.Resize(4) // regrow within capacity: same backing array
	b.Seed(2, 3)
	ref := New(3)
	if got, want := b.Float64(2), ref.Float64(); got != want {
		t.Fatalf("lane 2 after resize: %v != %v", got, want)
	}
	// Lane 1 still mid-stream where it was.
	ref1 := New(2)
	if got, want := b.Uint64(1), ref1.lf.Uint64(); got != want {
		t.Fatalf("lane 1 after resize: %d != %d", got, want)
	}
}
