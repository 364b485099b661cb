// Native reimplementation of math/rand's additive lagged-Fibonacci
// generator, with each seed's initial state derived on demand.
//
// Why: the simulator re-seeds constantly — one child stream per subflow,
// link process and workload per run, and a population campaign's seeds
// never repeat — so seeding is a per-run fixed cost. math/rand derives
// all 607 state words up front, with 1,841 dependent Park–Miller LCG
// steps of two integer divisions each (Schrage's method), yet most
// streams here read few of them: the first k < 273 draws read only words
// 334−k…333 and 607−k…606, and many streams draw once or not at all. So
// Seed derives nothing. Uint64 derives each word the first time the
// recurrence reads it, a chunk at a time: word i needs only the LCG value
// x_{21+3i} = a^(21+3i)·x_0 mod 2^31−1, one multiply by a precomputed jump
// multiplier with Mersenne shift-add reduction.
//
// The stream must be bit-identical to math/rand's: every experiment
// output in the repo is golden-tested against byte-exact expectations.
// The generator below follows the same recurrence, seeding LCG values,
// and cooking constants as math/rand's rngSource; lfsource_test.go proves
// equality exhaustively (first 10k draws across 1k seeds) and fuzzes it
// over arbitrary seeds and re-seeded states. The cooking table itself is
// not copied from the standard library — it is recovered algebraically
// at init from the output stream of rand.NewSource(1) (see initCooked),
// which both avoids duplicating a 607-entry literal and pins us to
// whatever table the linked math/rand actually uses.
package simrng

import "math/rand"

const (
	lfLen  = 607           // degree of the recurrence x_n = x_{n-273} + x_{n-607}
	lfTap  = 273           // distance to the second term
	lfFeed = lfLen - lfTap // the feed cursor's start; words below it are the feed's region
	lfMax  = 1 << 63       // Int63 modulus
	lfMask = lfMax - 1     // Int63 mask
	lfA    = 48271         // seeding LCG multiplier (Park–Miller)
	lfM    = (1 << 31) - 1 // seeding LCG modulus (2^31-1, a Mersenne prime)
	lfA2   = lfA * lfA % lfM

	// lfChunk is how many words one slow-path call derives below a
	// cursor. Smaller chunks derive fewer unread words, larger ones take
	// the slow path less often; 8 was fastest on a campaign's measured
	// mix of draws per stream (DESIGN.md §4.10).
	lfChunk = 8
)

var (
	// lfCooked is the additive scrambling table XORed into the seeded
	// state, recovered from math/rand at package init.
	lfCooked [lfLen]uint64
	// lfJump[i] is a^(21+3i) mod M: it takes x_0 to word i's first LCG
	// value in one step.
	lfJump [lfLen]uint64
)

// lfSource is the generator state. It implements rand.Source64, so a
// rand.Rand wrapped around it reproduces every math/rand distribution
// (including the ziggurat ExpFloat64/NormFloat64) bit-for-bit.
//
// The tap and feed cursors count down through vec as in math/rand, and
// each derives its own region as it goes: the tap [lfFeed, lfLen), the
// feed [0, lfFeed). A region holds seeded or later recurrence values
// from its cursor's bound up; the words below may be stale ones from an
// earlier seed. A bound drops to 0 once its region is done.
type lfSource struct {
	tap, feed     int
	tapLo, feedLo int
	x0            uint64 // the reduced seed: the seeding LCG's x_0
	vec           [lfLen]int64
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

// Seed positions the generator at the start of the stream for seed in
// constant time: it reduces the seed as math/rand does and resets the
// cursors and their bounds, deriving no state word. A state that has
// drawn before may be re-seeded; its stale words are overwritten before
// they are read. The tap starts at lfLen, not 0: its first step lands on
// word 606 either way.
func (s *lfSource) Seed(seed int64) {
	seed %= lfM
	if seed < 0 {
		seed += lfM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.tapLo = lfLen, lfLen
	s.feed, s.feedLo = lfFeed, lfFeed
}

// Uint64 advances the recurrence one step. Each cursor is compared with
// its bound instead of with 0; refill, off the fast path, wraps a cursor
// that passed 0 or derives the chunk below it.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	s.feed--
	if s.tap < s.tapLo || s.feed < s.feedLo {
		s.refill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// refill is Uint64's slow path.
//
// Draw j < 607 after Seed reads tap word 606−j, and feed word 333−j up to
// draw 333, then 940−j. So in draws 0–272 the tap walks the upper region
// [334, 607) and in draws 0–333 the feed walks the lower region [0, 334),
// each deriving the chunk below it. Neither cursor reads an underived
// word of the other's region: the tap enters the lower region at draw
// 273, on the word the feed visited at draw 0, and stays 273 draws
// behind it; the feed reaches word 606 at draw 334, after the tap has
// derived the whole upper region. A chunk holds only words no cursor has
// visited since Seed, so deriving never overwrites an advanced word, and
// every stale word is overwritten before it is read.
func (s *lfSource) refill() {
	s.tap, s.tapLo = s.advance(s.tap, s.tapLo, lfFeed)
	s.feed, s.feedLo = s.advance(s.feed, s.feedLo, 0)
}

// advance returns cursor c and its bound lo once c is at or above lo.
// Its region reaches down to floor: advance derives the next chunk of
// it, or drops the bound to 0 once the region is done (the feed derived
// everything below the tap's), or wraps c once it passed 0 (the whole
// vector is derived by then).
func (s *lfSource) advance(c, lo, floor int) (int, int) {
	switch {
	case c >= lo: // the other cursor took the slow path
	case c < 0:
		c += lfLen
	case lo <= floor:
		lo = 0
	default:
		n := max(lo-lfChunk, floor)
		s.derive(n, lo)
		lo = n
	}
	return c, lo
}

// derive fills words [lo, hi) with their seeded values.
func (s *lfSource) derive(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.vec[i] = seedWord(mulModM(s.x0, lfJump[i]), lfCooked[i])
	}
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
// where u_i is the three-value seeding word (what derive writes while
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
	var u lfSource
	u.Seed(1)
	u.derive(0, lfLen)
	for i := range lfCooked {
		lfCooked[i] = uint64(v[i] ^ u.vec[i])
	}
}

func init() {
	// math/rand steps the LCG twenty times before word 0's first value,
	// x_21, and each word takes three values.
	x := uint64(1)
	for range 21 {
		x = mulModM(x, lfA)
	}
	a3 := mulModM(lfA2, lfA)
	for i := range lfJump {
		lfJump[i] = x
		x = mulModM(x, a3)
	}
	initCooked()
}
