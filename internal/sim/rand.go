package sim

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding recurrence's modulus, a Mersenne prime

	// seedMul is the seeding recurrence x ↦ 48271·x mod (2³¹−1).
	seedMul = 48271

	// registerChunk is how many slab registers one allocation holds.
	registerChunk = 16
)

// seedPow[i] is 48271^(3i+1…3i+3) mod (2³¹−1): register word i takes
// the warmed-up seed times each of the three.
var seedPow = func() (p [rngLen][3]uint32) {
	x := uint64(1)
	for i := range p {
		for k := range p[i] {
			x = lehmer(x, seedMul)
			p[i][k] = uint32(x)
		}
	}
	return p
}()

// Source is math/rand's additive lagged-Fibonacci generator (607 words,
// tap 273), bit for bit: seeded with the same value it yields the same
// Int63 and Uint64 sequence as rand.NewSource, so a *rand.Rand over it
// draws the same ExpFloat64, Float64, Intn, … as the standard library's.
//
// It builds its 607-word register only when it needs it. Seed keeps the
// warmed-up seed alone, and each of the first 607 draws is computed from
// it: those draws read only words Seed would have written, and any such
// word is three multiplies by a shared power table away. Draw 608 fills
// the register, in vec's storage if it has one and otherwise in storage
// shared with other streams' registers, and from then on the generator
// steps its feed and tap as math/rand does. A stream that draws a few
// hundred values therefore costs about 40 bytes and no register.
//
// The zero Source is not seeded. A Source must not be copied once it
// holds a register, since the copy would share it.
type Source struct {
	x    uint64 // the seeding sequence after its 20 warm-up steps
	n    int    // draws since Seed, up to rngLen; rngLen+1 once vec holds the state
	tap  int
	feed int
	vec  *[rngLen]int64 // the register from draw rngLen+1 on; kept across Seed
}

// Seed sets the generator to the state rand.NewSource(seed) starts in.
// The seed is normalized as the standard library does it — reduced
// mod 2³¹−1, negatives wrapped, 0 mapped to 89482311 — and drives the
// same Lehmer sequence x ↦ 48271·x mod (2³¹−1) through its 20 warm-up
// steps, each a 64-bit multiply and a Mersenne fold, not a division.
// The register is left unbuilt.
func (s *Source) Seed(seed int64) {
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
	s.x, s.n = x, 0
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

// word returns register word i as math/rand's seeding leaves it: three
// consecutive values of the seeding sequence, packed and XORed with
// rngCooked[i].
func (s *Source) word(i int) int64 {
	p := &seedPow[i]
	a := lehmer(s.x, uint64(p[0]))
	b := lehmer(s.x, uint64(p[1]))
	c := lehmer(s.x, uint64(p[2]))
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
}

// early returns draw j ≤ rngLen from the seed alone. Draw j adds the
// word under the feed, slot (rngLen−rngTap−j) mod rngLen, to the word
// under the tap, slot rngLen−j. In the first rngLen draws the feed
// visits every slot once, so it always reads a seeded word. The tap
// reads a seeded word up to draw rngTap; from then on it reads the slot
// the feed wrote rngTap draws before, which holds draw j−rngTap.
func (s *Source) early(j int) int64 {
	var w int64
	for ; j > rngTap; j -= rngTap {
		w += s.word(feedSlot(j))
	}
	return w + s.word(feedSlot(j)) + s.word(rngLen-j)
}

// feedSlot is the slot draw j ≤ rngLen writes.
func feedSlot(j int) int {
	i := rngLen - rngTap - j
	if i < 0 {
		i += rngLen
	}
	return i
}

// fill builds the register as it stands after rngLen draws — the seeded
// words, stepped rngLen times — and hands the stream over to it.
func (s *Source) fill() {
	if s.vec == nil {
		s.vec = newRegister()
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for range rngLen {
		s.step()
	}
	s.n = rngLen + 1
}

// registers holds the slab streams' registers in chunks of
// registerChunk, so slab streams that draw past rngLen cost one
// allocation per chunk, not one per stream.
var registers struct {
	sync.Mutex
	free [][rngLen]int64
}

// newRegister hands out one register from the current chunk.
func newRegister() *[rngLen]int64 {
	registers.Lock()
	defer registers.Unlock()
	if len(registers.free) == 0 {
		registers.free = make([][rngLen]int64, registerChunk)
	}
	v := &registers.free[0]
	registers.free = registers.free[1:]
	return v
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.n <= rngLen {
		if s.n < rngLen {
			s.n++
			return uint64(s.early(s.n))
		}
		s.fill()
	}
	return uint64(s.step())
}

// step advances the register by one draw, as math/rand's rngSource.
func (s *Source) step() int64 {
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
	return x
}

// Rand is a *rand.Rand and the Source it draws from, in one value, so a
// slab of them holds a stream per element and seeds each in place. It
// is about 90 bytes until its stream passes draw 607.
type Rand struct {
	r   rand.Rand
	src Source
}

// Init seeds r's Source in place and returns r's *rand.Rand, which then
// draws what rand.New(rand.NewSource(seed)) would. It allocates nothing,
// and re-seeding a used Rand restarts its stream from scratch and keeps
// its register, if it has one, for reuse. The result points into r, so
// r must not be copied while it is in use.
func (r *Rand) Init(seed int64) *rand.Rand {
	r.src.Seed(seed)
	r.r = *rand.New(&r.src)
	return &r.r
}

// NewRand returns a deterministic pseudo-random source for the given
// seed. Every stochastic component in the simulator receives its own
// source so that adding a component never perturbs the random streams of
// the others. Its stream is bit-identical to rand.New(rand.NewSource(seed))
// (TestSourceMatchesMathRand pins this). It costs one allocation of
// about 5 KB, the Rand and its register together, and an O(1) seed; the
// register is filled only if the stream passes draw 607. Code holding
// many streams keeps them in a []Rand instead and seeds each with Init.
func NewRand(seed int64) *rand.Rand {
	r := new(struct {
		Rand
		reg [rngLen]int64
	})
	r.src.vec = &r.reg
	return r.Init(seed)
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
