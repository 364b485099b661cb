package tcp

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/simrng"
	"repro/internal/units"
)

// stepULPs moves x by k units in the last place (toward +Inf for k > 0).
func stepULPs(x float64, k int64) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(x)) + k))
}

// The estimate stays within the stated bound of the exact p over the
// whole fast range, and the window keeps the required margin over it.
func TestRoundLossEstimate(t *testing.T) {
	if lossWindow < 0x1p10*lossErrBound {
		t.Fatalf("window %g is less than 2^10 times the error bound %g", lossWindow, lossErrBound)
	}
	lps := []float64{0x1p-20, 1e-4, 0.016, 0.048, 0.096, 0.16, 0.2}
	for i := 0; i <= 64; i++ {
		lps = append(lps, 0x1p-20+(0.2211-0x1p-20)*float64(i)/64)
	}
	var worst float64
	for _, lp := range lps {
		var c roundLoss
		c.set(lp)
		if !c.fast {
			t.Fatalf("lp %g is outside the fast range", lp)
		}
		for pkts := 1.0; pkts < lossMaxPkts; pkts += 1.0 / 64 {
			for _, x := range []float64{pkts, stepULPs(pkts, 1), stepULPs(pkts, -1)} {
				if x < 1 || x >= lossMaxPkts {
					continue
				}
				p := 1 - math.Pow(1-lp, x)
				if p <= 0 || p >= 1-0x1p-24 {
					t.Fatalf("lp %g pkts %g: p = %g is not well inside (0, 1)", lp, x, p)
				}
				err := math.Abs(c.estimate(x) - p)
				if err > lossErrBound {
					t.Fatalf("lp %g pkts %g: |p̂ − p| = %g exceeds the bound %g", lp, x, err, lossErrBound)
				}
				worst = max(worst, err)
			}
		}
	}
	t.Logf("largest |p̂ − p| = %g (2^%.1f)", worst, math.Log2(worst))
}

// The fast range ends where the bound's assumptions do.
func TestRoundLossFastRange(t *testing.T) {
	for _, tc := range []struct {
		lp   float64
		fast bool
	}{
		{0.016, true}, {0x1p-20, true}, {0.2211, true},
		{0, false}, {-0.1, false}, {1e-17, false}, {0x1p-21, false},
		{0.23, false}, {0.5, false}, {1, false}, {1.5, false}, {math.NaN(), false},
	} {
		var c roundLoss
		c.set(tc.lp)
		if c.fast != tc.fast {
			t.Errorf("lp %g: fast = %v, want %v", tc.lp, c.fast, tc.fast)
		}
	}
}

// The pure decision agrees with the exact comparison when u sits at the
// exact p and at ±1, ±2^20 and ±2^40 ulps from it: the first three fall
// inside the window and take the exact fallback, the last is decided by
// the estimate whenever p ≥ 2^-17.
func TestRoundLossDecisionNearP(t *testing.T) {
	for _, lp := range []float64{0x1p-20, 0.016, 0.048, 0.096, 0.2} {
		var c roundLoss
		c.set(lp)
		for _, pkts := range []float64{1, 1.25, 1.5, 2, 7.75, 10, 17.5 + 0x1p-40, 37.98, 63.49} {
			p := 1 - math.Pow(1-lp, pkts)
			for _, k := range []int64{0, 1, -1, 1 << 20, -1 << 20, 1 << 40, -1 << 40} {
				u := stepULPs(p, k)
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := c.lost(pkts, u), u < p; got != want {
					t.Errorf("lp %g pkts %g u = p%+d ulps: lost = %v, want %v", lp, pkts, k, got, want)
				}
			}
		}
	}
}

// FuzzRoundLossMatchesExact checks the loss decision against the
// reference Bernoulli(1 - math.Pow(1-lp, pkts)) on a twin source: the
// same answer on one path for lp, lp again, a second probability lp2
// and lp once more (so the constants are reused and rebuilt), and the
// same stream position afterwards. It also places u a fuzzed number of
// ulps from the exact p to drive the pure decision through both sides
// of its window.
func FuzzRoundLossMatchesExact(f *testing.F) {
	for _, lp := range []float64{0.016, 0.048, 0.096, 0.5, 1e-17, 0, -0.1, 1, 1.5, math.NaN()} {
		for _, pkts := range []float64{1, 3, 37.98, 0.4, 1e4, 1e300} {
			f.Add(lp, 0.048, pkts, int64(11), uint16(3), int64(0))
		}
	}
	f.Add(0.048, 0.016, 12.5, int64(-7), uint16(600), int64(1))
	f.Add(0.096, 0.5, 63.49, int64(5), uint16(0), int64(-1<<21))
	f.Add(0x1p-20, math.NaN(), 1.0, int64(1), uint16(1), int64(1<<40))
	f.Fuzz(func(t *testing.T, lp, lp2, pkts float64, seed int64, prior uint16, ulps int64) {
		a, b := simrng.New(seed), simrng.New(seed)
		for i := 0; i < int(prior%1024); i++ {
			a.Float64()
			b.Float64()
		}
		var p Path
		for round, l := range []float64{lp, lp, lp2, lp} {
			got := p.lostRound(a, l, pkts)
			want := b.Bernoulli(1 - math.Pow(1-l, pkts))
			if got != want {
				t.Fatalf("round %d, lp %g pkts %g: lost = %v, reference %v", round, l, pkts, got, want)
			}
		}
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("lp %g, %g pkts %g: sources diverged (next draws %v and %v)", lp, lp2, pkts, x, y)
		}

		c := p.loss
		if !c.fast || !(pkts >= 1 && pkts < lossMaxPkts) {
			return
		}
		pr := 1 - math.Pow(1-lp, pkts)
		if u := stepULPs(pr, ulps%(1<<42)); u >= 0 && u < 1 {
			if got, want := c.lost(pkts, u), u < pr; got != want {
				t.Fatalf("lp %g pkts %g u %v (p%+d ulps): lost = %v, want %v", lp, pkts, u, ulps%(1<<42), got, want)
			}
		}
	})
}

// A path that never reports a loss probability builds no loss
// constants, and the pointer to them leaves Path at twelve words.
func TestLosslessPathCarriesNoLossTable(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Path{}); got > 96 {
			t.Errorf("Path is %d bytes, want ≤ 96", got)
		}
	}
	eng := sim.New()
	path := &Path{Name: "g", Capacity: link.NewConstant(units.MbpsRate(10)), BaseRTT: 0.05}
	sf := NewSubflow("g", eng, simrng.New(1), path, DefaultConfig(), benchSink{})
	sf.Connect(0)
	runRounds(t, eng, sf, 256)
	if path.loss != nil {
		t.Fatal("a lossless path built loss constants")
	}
}

// roundLossCases is a fig10-like stream of (lp, pkts) pairs: the three
// collision-loss levels of one to three interferers and window sizes
// spread over the range the suite sees.
func roundLossCases() (lps [3]float64, pkts [61]float64) {
	lps = [3]float64{0.016, 0.048, 0.096}
	for i := range pkts {
		pkts[i] = 1 + float64(i)*0.617
	}
	return lps, pkts
}

// BenchmarkRoundLoss times one lossy round's decision: the reference
// Bernoulli(1 - math.Pow(1-lp, pkts)) against the path's fast decision.
// The loss probability changes every 512 decisions, as an interferer
// toggle would, so the fast case pays for its rebuilds.
func BenchmarkRoundLoss(b *testing.B) {
	lps, pkts := roundLossCases()
	b.Run("exact", func(b *testing.B) {
		src := simrng.New(1)
		n := 0
		for i := 0; i < b.N; i++ {
			lp := lps[i>>9%len(lps)]
			if src.Bernoulli(1 - math.Pow(1-lp, pkts[i%len(pkts)])) {
				n++
			}
		}
		sinkInt = n
	})
	b.Run("fast", func(b *testing.B) {
		src := simrng.New(1)
		var p Path
		n := 0
		for i := 0; i < b.N; i++ {
			lp := lps[i>>9%len(lps)]
			if p.lostRound(src, lp, pkts[i%len(pkts)]) {
				n++
			}
		}
		sinkInt = n
	})
}

var sinkInt int
