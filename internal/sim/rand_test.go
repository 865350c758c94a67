package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where Seed's normalization has a branch or a
// boundary: zero and its replacement, the modulus and its multiples,
// signs, and the ends of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2,
	int32max, -int32max, int32max - 1, int32max + 1, -int32max - 1,
	2 * int32max, -2 * int32max, 89482311, -89482311,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
}

// drawsMatch compares got with rand.New(rand.NewSource(seed)) over n
// draws of each of Uint64, Int63, ExpFloat64, Float64 and Intn, and
// reports the first difference.
func drawsMatch(t testing.TB, seed int64, got *rand.Rand, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := range n {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}
	for i := range n {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
	}
	for i := range n {
		if g, w := got.ExpFloat64(), want.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
	}
	for i := range n {
		if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
	}
	for i := range n {
		bound := 1 + i%1000
		if g, w := got.Intn(bound), want.Intn(bound); g != w {
			t.Fatalf("seed %d: Intn(%d) draw %d = %d, math/rand gives %d", seed, bound, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand is the stdlib oracle: over the edge seeds
// and 10⁴ random ones, a stream from Source draws exactly what
// rand.NewSource's does, so swapping one for the other moved no output.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	for _, seed := range edgeSeeds {
		drawsMatch(t, seed, NewRand(seed), draws)
	}
	seeds := rand.New(rand.NewSource(20260917))
	var r Rand
	for range 10000 {
		seed := int64(seeds.Uint64())
		drawsMatch(t, seed, r.Init(seed), draws)
	}
}

// TestRandInitWithoutAllocating: seeding a stream in place costs no
// allocation and NewRand costs one.
func TestRandInitWithoutAllocating(t *testing.T) {
	var r Rand
	seed := int64(0)
	if got := testing.AllocsPerRun(100, func() {
		seed++
		r.Init(seed).ExpFloat64()
	}); got != 0 {
		t.Errorf("Rand.Init allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { NewRand(seed) }); got != 1 {
		t.Errorf("NewRand allocates %v times, want 1", got)
	}
}

// TestLehmerIsExact checks the Mersenne fold against the plain modulo
// over the whole input range the seeding recurrence produces.
func TestLehmerIsExact(t *testing.T) {
	xs := []uint64{1, 2, seedMul, int32max - 2, int32max - 1}
	r := rand.New(rand.NewSource(1))
	for range 100000 {
		xs = append(xs, 1+uint64(r.Int63n(int32max-1)))
	}
	for _, m := range []uint64{seedMul, uint64(seedPow[0][2]), uint64(seedPow[rngLen-1][2])} {
		for _, x := range xs {
			if got, want := lehmer(x, m), x*m%int32max; got != want {
				t.Fatalf("lehmer(%d, %d) = %d, want %d", x, m, got, want)
			}
		}
	}
}

// reseedAfter are draw counts around the register's boundaries: none,
// one, either side of the tap (273) and of the register's length (607),
// where Source switches from computing draws off the seed to stepping
// its register, and well past it.
var reseedAfter = []int{0, 1, 272, 273, 274, 606, 607, 608, 5000}

// drawUsed draws used values from got, a stream seeded with seed, and
// checks each against math/rand's.
func drawUsed(t testing.TB, got *rand.Rand, seed int64, used int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for i := range used {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}
}

// TestSourceReseedRestarts: re-seeding a used stream yields the stream
// of a fresh one — flow slots and churn arrivals re-seed in place —
// after any number of draws around the register's boundaries, whether
// its register is shared slab storage (Rand.Init), its own (NewRand,
// re-seeded through rand.Rand.Seed) or not built yet.
func TestSourceReseedRestarts(t *testing.T) {
	for _, used := range reseedAfter {
		for _, seed := range []int64{1, 42, -7, math.MaxInt64} {
			var slab Rand
			drawUsed(t, slab.Init(^seed), ^seed, used)
			drawsMatch(t, seed, slab.Init(seed), 2000)

			own := NewRand(^seed)
			drawUsed(t, own, ^seed, used)
			own.Seed(seed)
			drawsMatch(t, seed, own, 2000)
		}
	}

	// Init also drops a partial word Read left buffered in the rand.Rand.
	var r Rand
	r.Init(7).Read(make([]byte, 5))
	drawsMatch(t, 11, r.Init(11), 2000)
}

// FuzzSourceMatchesMathRand runs the stdlib oracle on fuzzed seeds,
// starting from the edge seeds: a fresh NewRand stream, and a slab
// stream re-seeded after a fuzzed number of draws.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(reseedAfter[i%len(reseedAfter)]))
	}
	f.Fuzz(func(t *testing.T, seed int64, used uint16) {
		drawsMatch(t, seed, NewRand(seed), 2000)
		var r Rand
		drawUsed(t, r.Init(^seed), ^seed, int(used))
		drawsMatch(t, seed, r.Init(seed), 2000)
	})
}

// BenchmarkSeed sets a stream's state from a seed and draws k values:
// Source's O(1) seed, with its draws computed off the seed up to 607
// and from its register after, beside math/rand's full seeding.
func BenchmarkSeed(b *testing.B) {
	for _, k := range []int{0, 66, 300, 607, 2000} {
		b.Run(fmt.Sprintf("draws=%d/Source", k), func(b *testing.B) {
			var s Source
			seed := int64(0)
			for b.Loop() {
				seed++
				s.Seed(seed)
				for range k {
					s.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("draws=%d/math-rand", k), func(b *testing.B) {
			s := rand.NewSource(0).(rand.Source64)
			seed := int64(0)
			for b.Loop() {
				seed++
				s.Seed(seed)
				for range k {
					s.Uint64()
				}
			}
		})
	}
}

// BenchmarkNewRand builds a fresh seeded *rand.Rand: NewRand beside
// rand.New(rand.NewSource(seed)), and Rand.Init seeding a slab element.
func BenchmarkNewRand(b *testing.B) {
	b.Run("NewRand", func(b *testing.B) {
		b.ReportAllocs()
		seed := int64(0)
		for b.Loop() {
			seed++
			NewRand(seed)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		seed := int64(0)
		for b.Loop() {
			seed++
			rand.New(rand.NewSource(seed))
		}
	})
	b.Run("Init", func(b *testing.B) {
		b.ReportAllocs()
		var r Rand
		seed := int64(0)
		for b.Loop() {
			seed++
			r.Init(seed)
		}
	})
}
