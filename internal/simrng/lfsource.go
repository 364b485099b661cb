// Native reimplementation of math/rand's additive lagged-Fibonacci
// generator, with a fast derivation of each seed's initial state.
//
// Why: the simulator re-seeds constantly — one child stream per subflow,
// link process and workload per run, and a population campaign's seeds
// never repeat — so deriving the 607-word state vector is a per-run fixed
// cost. math/rand derives it with 1,841 dependent Park–Miller LCG steps,
// each two integer divisions (Schrage's method). seedVec computes the same
// LCG values with Mersenne shift-add reduction and precomputed jump
// multipliers, so four independent chains advance at once.
//
// The stream must be bit-identical to math/rand's: every experiment
// output in the repo is golden-tested against byte-exact expectations.
// The generator below follows the same recurrence, seeding LCG values,
// and cooking constants as math/rand's rngSource; lfsource_test.go proves
// equality exhaustively (first 10k draws across 1k seeds) and fuzzes it
// over arbitrary seeds. The cooking table itself is not copied from the
// standard library — it is recovered algebraically at init from the
// output stream of rand.NewSource(1) (see initCooked), which both avoids
// duplicating a 607-entry literal and pins us to whatever table the
// linked math/rand actually uses.
package simrng

import "math/rand"

const (
	lfLen  = 607           // degree of the recurrence x_n = x_{n-273} + x_{n-607}
	lfTap  = 273           // distance to the second term
	lfMax  = 1 << 63       // Int63 modulus
	lfMask = lfMax - 1     // Int63 mask
	lfA    = 48271         // seeding LCG multiplier (Park–Miller)
	lfM    = (1 << 31) - 1 // seeding LCG modulus (2^31-1, a Mersenne prime)

	// Jump multipliers a^k mod M for the seeding LCG.
	lfA2  = lfA * lfA % lfM
	lfA3  = lfA2 * lfA % lfM
	lfA6  = lfA3 * lfA3 % lfM
	lfA12 = lfA6 * lfA6 % lfM
	lfA21 = lfA12 * lfA6 % lfM * lfA3 % lfM
)

// lfCooked is the additive scrambling table XORed into the seeded state,
// recovered from math/rand at package init.
var lfCooked [lfLen]uint64

// lfSource is the generator state. It implements rand.Source64, so a
// rand.Rand wrapped around it reproduces every math/rand distribution
// (including the ziggurat ExpFloat64/NormFloat64) bit-for-bit.
type lfSource struct {
	tap  int
	feed int
	vec  [lfLen]int64
}

// mulModM returns x·c mod 2^31-1 for x, c < 2^31-1. The product is below
// 2^62, and 2^31 ≡ 1 (mod 2^31-1), so its high and low 31-bit halves sum
// to a value congruent to it and below 2(2^31-1): one conditional
// subtraction finishes the reduction.
func mulModM(x, c uint64) uint64 {
	p := x * c
	r := p&lfM + p>>31
	if r >= lfM {
		r -= lfM
	}
	return r
}

// seedWord builds one state word from the LCG value w = x_{21+3i} and
// its two successors, exactly as math/rand's seeding loop does.
func seedWord(w, cooked uint64) int64 {
	return int64(w<<40 ^ mulModM(w, lfA)<<20 ^ mulModM(w, lfA2) ^ cooked)
}

// seedVec derives the initial state vector for seed. math/rand steps the
// LCG x_k = a^k·x_0 mod M twenty times, then builds word i from x_{21+3i},
// x_{22+3i} and x_{23+3i}. Here word i's first value is reached directly:
// word i sits on chain i mod 4, chain j starts at x_{21+3j} and steps by
// a^12, so the four chains carry no dependency on one another.
func seedVec(seed int64, vec *[lfLen]int64) {
	seed = seed % lfM
	if seed < 0 {
		seed += lfM
	}
	if seed == 0 {
		seed = 89482311
	}
	c0 := mulModM(uint64(seed), lfA21)
	c1 := mulModM(c0, lfA3)
	c2 := mulModM(c1, lfA3)
	c3 := mulModM(c2, lfA3)
	i := 0
	for ; i < lfLen-3; i += 4 {
		vec[i] = seedWord(c0, lfCooked[i])
		vec[i+1] = seedWord(c1, lfCooked[i+1])
		vec[i+2] = seedWord(c2, lfCooked[i+2])
		vec[i+3] = seedWord(c3, lfCooked[i+3])
		c0 = mulModM(c0, lfA12)
		c1 = mulModM(c1, lfA12)
		c2 = mulModM(c2, lfA12)
		c3 = mulModM(c3, lfA12)
	}
	// lfLen = 4·151 + 3: three words remain, on chains 0–2.
	vec[i] = seedWord(c0, lfCooked[i])
	vec[i+1] = seedWord(c1, lfCooked[i+1])
	vec[i+2] = seedWord(c2, lfCooked[i+2])
}

// Seed positions the generator at the start of the stream for seed.
func (s *lfSource) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap
	seedVec(seed, &s.vec)
}

// Uint64 advances the recurrence one step.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value from the stream.
func (s *lfSource) Int63() int64 {
	return int64(s.Uint64() & lfMask)
}

// int31 mirrors rand.Rand.Int31: the top 32 bits of Int63.
func (s *lfSource) int31() int32 {
	return int32(s.Int63() >> 32)
}

// initCooked recovers math/rand's scrambling table from the output
// stream of rand.NewSource(1).
//
// After Seed(1) the library's state vector is v[i] = int64(u_i ^ C[i]),
// where u_i is the three-value seeding word (what seedVec returns while
// the table is still zero) and C the table we want. The first 607
// outputs x_j of the generator visit feed slots 333,332,…,0,606,…,334
// and tap slots 606,…,273,272,…,0, each exactly once, with every x_j the
// sum of one original v slot and either another original slot or an
// earlier output:
//
//	j ∈ [0,272]:    x_j = v[333-j] + v[606-j]   (both original)
//	j ∈ [273,333]:  x_j = v[333-j] + x_{j-273}  → v[0..60]
//	j ∈ [334,606]:  x_j = v[940-j] + x_{j-273}  → v[334..606]
//
// The second and third lines yield those slots directly; substituting
// the third line's slots back into the first yields v[61..333]. XORing
// out u_i then leaves C[i]. All arithmetic is int64 two's-complement
// wraparound, matching the generator's own additions.
func initCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var x [lfLen]int64
	for j := range x {
		x[j] = int64(src.Uint64())
	}
	var v [lfLen]int64
	for j := 273; j <= 333; j++ {
		v[333-j] = x[j] - x[j-273]
	}
	for j := 334; j <= 606; j++ {
		v[940-j] = x[j] - x[j-273]
	}
	for j := 0; j <= 272; j++ {
		v[333-j] = x[j] - v[606-j]
	}
	// lfCooked is all zero until the loop below fills it, so this yields
	// the bare seeding words u_i for seed 1.
	var u [lfLen]int64
	seedVec(1, &u)
	for i := range lfCooked {
		lfCooked[i] = uint64(v[i] ^ u[i])
	}
}

func init() {
	initCooked()
}
