package simrng

import (
	"math"
	"math/rand"
	"testing"
)

// TestLFSourceStreamEquality proves the native generator reproduces
// math/rand's raw stream exhaustively: the first 10k draws across 1k
// seeds (100 seeds × 1k draws under -short), spanning negative, zero,
// and beyond-modulus seeds. Any drift here would silently corrupt every
// golden experiment output, so the bar is exact equality, not sampling.
func TestLFSourceStreamEquality(t *testing.T) {
	seeds, draws := 1000, 10000
	if testing.Short() {
		seeds, draws = 100, 1000
	}
	check := func(seed int64) {
		t.Helper()
		ref := rand.NewSource(seed).(rand.Source64)
		var lf lfSource
		lf.Seed(seed)
		for i := 0; i < draws; i++ {
			if got, want := lf.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x want %#x", seed, i, got, want)
			}
		}
	}
	for i := 0; i < seeds; i++ {
		check(int64(i))
	}
	// Edge seeds: negative, modulus multiples (normalize to the same
	// stream as seed 0), extremes.
	for _, seed := range []int64{-1, -1 << 40, lfM, 2 * lfM, -lfM, 1<<63 - 1, -1 << 63} {
		check(seed)
	}
}

// TestLFSourceInt63Equality covers the Int63 masking path against the
// library across a few seeds.
func TestLFSourceInt63Equality(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := rand.NewSource(seed)
		var lf lfSource
		lf.Seed(seed)
		for i := 0; i < 2000; i++ {
			if got, want := lf.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: got %d want %d", seed, i, got, want)
			}
		}
	}
}

// TestSourceDistributionEquality proves every Source helper consumes the
// stream exactly as the previous math/rand-backed implementation did:
// uniform draws via the native fast paths, ziggurat draws via the
// embedded rand.Rand, interleaved so any draw-count mismatch desyncs the
// comparison immediately.
func TestSourceDistributionEquality(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		s := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d iter %d Float64: %v != %v", seed, i, got, want)
			}
			if got, want := s.Intn(97), ref.Intn(97); got != want {
				t.Fatalf("seed %d iter %d Intn(97): %v != %v", seed, i, got, want)
			}
			if got, want := s.Intn(64), ref.Intn(64); got != want {
				t.Fatalf("seed %d iter %d Intn(64): %v != %v", seed, i, got, want)
			}
			if got, want := s.Intn(1<<40), ref.Int63n(1<<40); got != int(want) {
				t.Fatalf("seed %d iter %d Intn(1<<40): %v != %v", seed, i, got, want)
			}
			if got, want := s.Exponential(2), ref.ExpFloat64()*2; got != want {
				t.Fatalf("seed %d iter %d Exponential: %v != %v", seed, i, got, want)
			}
			if got, want := s.Normal(1, 3), 1+3*ref.NormFloat64(); got != want {
				t.Fatalf("seed %d iter %d Normal: %v != %v", seed, i, got, want)
			}
			if got, want := s.Bernoulli(0.3), ref.Float64() < 0.3; got != want {
				t.Fatalf("seed %d iter %d Bernoulli: %v != %v", seed, i, got, want)
			}
		}
	}
}

// TestSplitEquality pins Split to its original derivation: one Uint64
// off the parent stream mixed with the label.
func TestSplitEquality(t *testing.T) {
	s := New(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		child := s.Split(uint64(i))
		refChild := rand.New(rand.NewSource(int64(mix64(ref.Uint64() ^ mix64(uint64(i))))))
		for j := 0; j < 100; j++ {
			if got, want := child.Float64(), refChild.Float64(); got != want {
				t.Fatalf("split %d draw %d: %v != %v", i, j, got, want)
			}
		}
	}
}

// FuzzSeedMatchesStdlib checks the jump-chain seed derivation against
// math/rand for arbitrary seeds: the first 1,000 draws must be equal.
func FuzzSeedMatchesStdlib(f *testing.F) {
	for _, seed := range []int64{0, 89482311, lfM, -lfM, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ref := rand.NewSource(seed).(rand.Source64)
		var lf lfSource
		lf.Seed(seed)
		for i := 0; i < 1000; i++ {
			if got, want := lf.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x want %#x", seed, i, got, want)
			}
		}
	})
}

// BenchmarkSeed derives a fresh state vector per iteration, as a
// campaign's never-repeating seeds do. It must report 0 allocs/op.
func BenchmarkSeed(b *testing.B) {
	var lf lfSource
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lf.Seed(int64(i))
	}
}

func BenchmarkSeedStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.NewSource(12345)
	}
}
