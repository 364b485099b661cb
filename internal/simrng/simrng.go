// Package simrng provides the deterministic random-number machinery used by
// every stochastic process in the simulator.
//
// Reproducibility is a first-class requirement: every experiment in the
// paper reports statistics over repeated runs, and this reproduction must
// regenerate the same tables on every invocation. All randomness therefore
// flows from explicit seeds. A Source wraps math/rand with convenience
// distributions; Split derives independent child streams so that adding a
// new consumer of randomness does not perturb existing ones.
package simrng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source with the distribution helpers the
// simulator needs. It is not safe for concurrent use; the discrete-event
// kernel is single-threaded by design.
//
// The generator is a native reimplementation of math/rand's lagged-
// Fibonacci source (see lfsource.go) whose stream is proven bit-identical
// to the library's. Uniform draws go through native fast paths on the
// state vector; the ziggurat distributions (ExpFloat64, NormFloat64) go
// through an embedded rand.Rand wrapped around the same state, so they
// too consume the shared stream in library order.
type Source struct {
	rng   *rand.Rand
	arena *Arena // non-nil when recycled via an Arena; inherited by Split children
	lf    lfSource
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.lf.Seed(seed)
	s.rng = rand.New(&s.lf)
	return s
}

// Split derives an independent child stream. The derivation mixes the
// parent seed stream with the label using SplitMix64-style finalization, so
// children with different labels are decorrelated from each other and from
// the parent.
func (s *Source) Split(label uint64) *Source {
	base := s.lf.Uint64()
	seed := int64(mix64(base ^ mix64(label)))
	if s.arena != nil {
		return s.arena.New(seed)
	}
	return New(seed)
}

// mix64 is the SplitMix64 finalizer, a high-quality 64-bit mixing function.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1). The resample-on-1.0 loop
// replicates rand.Rand.Float64 exactly (the 1.0 case needs the stream to
// produce 1<<63-1, so it is astronomically rare but must stay identical).
// It masks Uint64 itself rather than calling Int63, which keeps it within
// the inlining budget around the out-of-line Uint64.
func (s *Source) Float64() float64 {
	for {
		f := float64(int64(s.lf.Uint64()&lfMask)) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0,n), drawing exactly as rand.Rand.Intn
// does (31-bit rejection sampling for small n, 63-bit otherwise). It
// panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrng: Intn with non-positive n")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n mirrors rand.Rand.Int31n's rejection sampling bit-for-bit.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is a power of two
		return s.lf.int31() & (n - 1)
	}
	maxv := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.lf.int31()
	for v > maxv {
		v = s.lf.int31()
	}
	return v % n
}

// int63n mirrors rand.Rand.Int63n's rejection sampling bit-for-bit.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.lf.Int63() & (n - 1)
	}
	maxv := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.lf.Int63()
	for v > maxv {
		v = s.lf.Int63()
	}
	return v % n
}

// Exponential returns an exponentially distributed value with the given
// mean. A non-positive mean returns 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// ExponentialRate returns an exponentially distributed value with the given
// rate (events per unit time). A non-positive rate returns +Inf.
func (s *Source) ExponentialRate(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return s.rng.ExpFloat64() / rate
}

// Normal returns a normally distributed value.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has the given mu and sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto returns a (bounded-below) Pareto value with scale xm and shape
// alpha. Heavy-tailed object sizes in the web workload use this.
func (s *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return 0
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac]. It is
// the standard way the simulator adds measurement-style noise.
func (s *Source) Jitter(v, frac float64) float64 {
	if frac <= 0 {
		return v
	}
	return v * s.Uniform(1-frac, 1+frac)
}

// OnOff models a two-state continuous-time Markov on-off process: holding
// times in each state are exponential. It is used for the random WiFi
// bandwidth modulation of §4.3 (mean 40 s in each state) and for the
// background-traffic interferers of §4.4 (rates λon, λoff).
type OnOff struct {
	src *Source
	// MeanOn and MeanOff are the mean holding times of the two states,
	// in seconds.
	MeanOn, MeanOff float64
	on              bool
}

// NewOnOff builds an on-off process with the given mean holding times that
// starts in the given state.
func NewOnOff(src *Source, meanOn, meanOff float64, startOn bool) *OnOff {
	return &OnOff{src: src, MeanOn: meanOn, MeanOff: meanOff, on: startOn}
}

// NewOnOffRates builds an on-off process from transition rates: lambdaOn is
// the rate of leaving the off state (so mean off-time = 1/lambdaOn) and
// lambdaOff the rate of leaving the on state, matching the λon/λoff
// convention of §4.4.
func NewOnOffRates(src *Source, lambdaOn, lambdaOff float64, startOn bool) *OnOff {
	inv := func(r float64) float64 {
		if r <= 0 {
			return math.Inf(1)
		}
		return 1 / r
	}
	return NewOnOff(src, inv(lambdaOff), inv(lambdaOn), startOn)
}

// On reports whether the process is currently in the on state.
func (p *OnOff) On() bool { return p.on }

// NextToggle samples the holding time remaining in the current state and
// flips the state, returning the sampled holding time in seconds. Callers
// schedule the flip that far in the future.
func (p *OnOff) NextToggle() float64 {
	var hold float64
	if p.on {
		hold = p.src.Exponential(p.MeanOn)
	} else {
		hold = p.src.Exponential(p.MeanOff)
	}
	p.on = !p.on
	return hold
}
