package tcp

import (
	"math"

	"repro/internal/simrng"
)

// The per-round loss decision. A round of pkts packets on a path with
// per-packet loss probability lp is lost with probability
// p = 1 − (1 − lp)^pkts, and the reference decision is
// src.Bernoulli(1 - math.Pow(1-lp, pkts)): no draw when p ≤ 0 or p ≥ 1,
// otherwise one Float64 draw u, and the round is lost iff u < p. Every
// lossy round made that math.Pow call, and it was the largest single
// cost of the collision-loss experiments, so the decision is taken from
// an estimate p̂ that needs no transcendental call, and the exact p is
// computed only when u lands within lossWindow of p̂. The result and
// the draws taken are the reference's in every case.
//
// Fast path. It runs when 2⁻²⁰ ≤ lp and |log(1 − lp)| ≤ 1/4 (so
// lp < 0.222), and 1 ≤ pkts < lossMaxPkts. Then (1 − lp)^pkts lies in
// [e⁻¹⁶, 1 − 2⁻²⁰], far from both ends next to the error bound below,
// so the exact p lies strictly inside (0, 1) and the reference takes
// exactly one draw. With j = pkts rounded to the nearest integer and
// z = (pkts − j)·log(1 − lp), so |z| ≤ 1/8,
//
//	p̂ = 1 − (1 − lp)^j · Σ_{i ≤ 8} zⁱ/i!
//
// with (1 − lp)^j read from a table built by repeated multiplication.
//
// Error bound, in units of u = 2⁻⁵³, relative to (1 − lp)^pkts ≤ 1:
//   - table entry: at most 62 rounded products, ≤ 62u;
//   - log(1 − lp) within 1 ulp and one rounded product: z is off by
//     ≤ 3u·|z|, which moves e^z by ≤ 0.4u;
//   - truncation after z⁸/8!: ≤ |z|⁹/9!·e^|z|, relative ≤ 2.7e-14;
//   - Horner evaluation and rounded coefficients: ≤ 24u;
//   - the product and the subtraction from 1: ≤ 2u;
//   - the reference's own math.Pow (six squarings and products of the
//     mantissa for the integer part, Exp·Log within a few ulps for the
//     fraction) and its subtraction: ≤ 80u.
//
// The sum is |p̂ − p| < 170u + 2.7e-14 < 4.6e-14 < 2⁻⁴⁴, where p is the
// value the reference computes, not the real-number one. lossWindow is
// 2⁻³⁰, 2¹⁴ times that bound, so |u − p̂| > lossWindow proves u < p has
// the same answer as u < p̂. The exact fallback then runs with
// probability 2·lossWindow ≈ 2⁻²⁹ per round, and TestRoundLossEstimate
// checks the bound on a grid of (lp, pkts).
//
// Everything else goes to the reference expression unchanged: NaN,
// lp ≤ 0, lp ≥ 1, lp < 2⁻²⁰ (where 1 − lp may round to 1), lp above
// the fast range, pkts < 1, and pkts beyond the table.

const (
	// lossPows is the length of the (1 − lp)^k table.
	lossPows = 64
	// lossMaxPkts bounds the fast path's pkts so that rounding it to
	// the nearest integer stays inside the table.
	lossMaxPkts = lossPows - 0.5
	// lossWindow is the band around p̂ in which the exact p decides.
	lossWindow = 0x1p-30
	// lossErrBound is the proven bound on |p̂ − p| (see above).
	lossErrBound = 0x1p-44
)

// roundLoss holds a path's loss-decision constants for one loss
// probability. They are keyed by the bits of lp and rebuilt in place
// when LossProb returns a different value; the loss probability of a
// contended WiFi path changes only when an interferer toggles, hundreds
// of rounds apart.
type roundLoss struct {
	lpBits uint64  // Float64bits of the lp the constants describe
	q      float64 // 1 - lp, computed exactly as the reference does
	logq   float64 // math.Log(q)
	fast   bool    // lp admits the fast path
	pow    [lossPows]float64
}

// set rebuilds the constants for lp.
func (c *roundLoss) set(lp float64) {
	c.lpBits = math.Float64bits(lp)
	c.q = 1 - lp
	c.logq = math.Log(c.q)
	c.fast = lp >= 0x1p-20 && c.logq >= -0.25 // false for NaN
	if !c.fast {
		return
	}
	x := 1.0
	for k := range c.pow {
		c.pow[k] = x
		x *= c.q
	}
}

// estimate returns p̂ for 1 ≤ pkts < lossMaxPkts on a fast-path lp.
func (c *roundLoss) estimate(pkts float64) float64 {
	j := int(pkts + 0.5)
	z := (pkts - float64(j)) * c.logq
	e := 1 + z*(1+z*(1.0/2+z*(1.0/6+z*(1.0/24+z*(1.0/120+
		z*(1.0/720+z*(1.0/5040+z*(1.0/40320))))))))
	return 1 - c.pow[j&(lossPows-1)]*e
}

// lost is the pure fast-path decision: it reports exactly
// u < 1 - math.Pow(1-lp, pkts) for a fast-path lp and
// 1 ≤ pkts < lossMaxPkts, calling math.Pow only when u lies within
// lossWindow of the estimate.
func (c *roundLoss) lost(pkts, u float64) bool {
	if d := u - c.estimate(pkts); math.Abs(d) > lossWindow {
		return d < 0
	}
	return u < 1-math.Pow(c.q, pkts)
}

// lostRound decides whether a round of pkts packets is lost at the
// per-packet loss probability lp, returning what
// src.Bernoulli(1 - math.Pow(1-lp, pkts)) returns and taking the same
// draws from src.
func (p *Path) lostRound(src *simrng.Source, lp, pkts float64) bool {
	c := p.loss
	if c == nil {
		c = new(roundLoss)
		p.loss = c
		c.set(lp)
	} else if c.lpBits != math.Float64bits(lp) {
		c.set(lp)
	}
	if c.fast && pkts >= 1 && pkts < lossMaxPkts {
		return c.lost(pkts, src.Float64())
	}
	return src.Bernoulli(1 - math.Pow(c.q, pkts))
}
