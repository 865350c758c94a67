package sim

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding recurrence's modulus, a Mersenne prime

	// seedMul is the seeding recurrence x ↦ 48271·x mod (2³¹−1), and
	// seedMul3 is three of its steps at once.
	seedMul  = 48271
	seedMul3 = seedMul * seedMul % int32max * seedMul % int32max
)

// Source is math/rand's additive lagged-Fibonacci generator (607 words,
// tap 273), bit for bit: seeded with the same value it yields the same
// Int63 and Uint64 sequence as rand.NewSource, so a *rand.Rand over it
// draws the same ExpFloat64, Float64, Intn, … as the standard library's.
// Only the seeding is faster; the zero Source is not seeded.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// Seed sets the generator to the state rand.NewSource(seed) starts in.
// The seed is normalized as the standard library does it — reduced
// mod 2³¹−1, negatives wrapped, 0 mapped to 89482311 — and drives the
// same Lehmer sequence x ↦ 48271·x mod (2³¹−1). Each register word takes
// three consecutive values of it, so after the 20 warm-up steps the
// three values run as three independent chains stepping by 48271³, and
// every step is a 64-bit multiply and a Mersenne fold, not a division.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	for range 20 {
		x = lehmer(x, seedMul)
	}
	a := lehmer(x, seedMul)
	b := lehmer(a, seedMul)
	c := lehmer(b, seedMul)
	for i := range s.vec {
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
		a, b, c = lehmer(a, seedMul3), lehmer(b, seedMul3), lehmer(c, seedMul3)
	}
}

// lehmer returns x·m mod (2³¹−1) for x and m in [1, 2³¹−1). The product
// fits in 62 bits, and since 2³¹ ≡ 1 its high bits fold onto its low
// 31; one conditional subtraction finishes the reduction.
func lehmer(x, m uint64) uint64 {
	p := x * m
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Rand is a *rand.Rand and the Source it draws from, in one value, so a
// slab of them holds a stream per element and seeds each in place.
type Rand struct {
	r   rand.Rand
	src Source
}

// Init seeds r's Source in place and returns r's *rand.Rand, which then
// draws what rand.New(rand.NewSource(seed)) would. It allocates nothing,
// and re-seeding a used Rand restarts its stream from scratch. The
// result points into r, so r must not be copied while it is in use.
func (r *Rand) Init(seed int64) *rand.Rand {
	r.src.Seed(seed)
	r.r = *rand.New(&r.src)
	return &r.r
}

// NewRand returns a deterministic pseudo-random source for the given
// seed. Every stochastic component in the simulator receives its own
// source so that adding a component never perturbs the random streams of
// the others. Its stream is bit-identical to rand.New(rand.NewSource(seed))
// (TestSourceMatchesMathRand pins this); it costs one allocation of about
// 4.9 KB and a division-free seed. Code holding many streams keeps them
// in a []Rand instead and seeds each with Init.
func NewRand(seed int64) *rand.Rand {
	return new(Rand).Init(seed)
}

// DeriveSeed combines a run-level seed with a component identifier into
// a stream-specific seed. The mixing uses splitmix64 so that nearby
// (seed, id) pairs produce uncorrelated streams.
func DeriveSeed(seed int64, id int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Exponential draws an exponentially distributed value with the given
// mean from r. A zero or negative mean returns 0, which lets callers
// express degenerate (always-on or always-off) sources naturally.
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}
