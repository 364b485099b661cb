package simrng

import (
	"math"
	"math/rand"
	"strconv"
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

// FuzzSeedMatchesStdlib checks the on-demand seed derivation against
// math/rand for arbitrary seeds, on a state that already drew prevDraws
// values from prevSeed: the first 1,000 draws after re-seeding with seed
// must equal rand.NewSource(seed)'s. Pooled Sources re-seed used
// states, whose stale words must never be read. The corpus
// puts prevDraws at the chunk edges, at the draws where the tap leaves
// its region (272/273) and the feed wraps (333/334), at a full lap
// (606/607) and beyond it.
func FuzzSeedMatchesStdlib(f *testing.F) {
	for _, seed := range []int64{0, 89482311, lfM, -lfM, math.MinInt64, math.MaxInt64} {
		f.Add(int64(0), uint16(0), seed)
	}
	prev := []int{272, 273, 333, 334, 606, 607, 608, 1500}
	for n := lfChunk; n < lfFeed; n += lfChunk {
		prev = append(prev, n-1, n, n+1)
	}
	for i, n := range prev {
		f.Add(int64(7+i), uint16(n), int64(-3*i))
	}
	f.Fuzz(func(t *testing.T, prevSeed int64, prevDraws uint16, seed int64) {
		var lf lfSource
		lf.Seed(prevSeed)
		for i := 0; i < int(prevDraws); i++ {
			lf.Uint64()
		}
		ref := rand.NewSource(seed).(rand.Source64)
		lf.Seed(seed)
		for i := 0; i < 1000; i++ {
			if got, want := lf.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d after %d draws of seed %d, draw %d: got %#x want %#x",
					seed, prevDraws, prevSeed, i, got, want)
			}
		}
	})
}

// BenchmarkSeed seeds a state and draws k values from it, as a
// campaign's never-repeating seeds do: seeding alone derives nothing, so
// the draws carry the derivation of the words they read. Every k must
// report 0 allocs/op.
func BenchmarkSeed(b *testing.B) {
	for _, k := range []int{1, 16, lfLen} {
		b.Run("draws="+strconv.Itoa(k), func(b *testing.B) {
			var lf lfSource
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lf.Seed(int64(i))
				for j := 0; j < k; j++ {
					lf.Uint64()
				}
			}
		})
	}
}

func BenchmarkSeedStdlib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.NewSource(12345)
	}
}
