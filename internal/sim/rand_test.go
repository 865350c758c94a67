package sim

import (
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

// TestSourceReseedRestarts: re-seeding a used Source, directly or
// through Rand.Init, yields the stream of a fresh one — flow slots and
// churn arrivals re-seed in place.
func TestSourceReseedRestarts(t *testing.T) {
	var r Rand
	used := r.Init(7)
	for range 5000 {
		used.ExpFloat64()
	}
	buf := make([]byte, 5)
	used.Read(buf) // leaves a partial word buffered in the rand.Rand
	drawsMatch(t, 11, r.Init(11), 2000)

	var src Source
	src.Seed(3)
	for range 1000 {
		src.Uint64()
	}
	src.Seed(5)
	want := rand.NewSource(5).(rand.Source64)
	for i := range 2000 {
		if g, w := src.Uint64(), want.Uint64(); g != w {
			t.Fatalf("re-seeded Source draw %d = %#x, fresh math/rand gives %#x", i, g, w)
		}
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
	for _, m := range []uint64{seedMul, seedMul3} {
		for _, x := range xs {
			if got, want := lehmer(x, m), x*m%int32max; got != want {
				t.Fatalf("lehmer(%d, %d) = %d, want %d", x, m, got, want)
			}
		}
	}
}

// FuzzSourceMatchesMathRand runs the stdlib oracle on fuzzed seeds,
// starting from the edge seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		drawsMatch(t, seed, NewRand(seed), 2000)
	})
}

// BenchmarkSeed sets a stream's state from a seed: Source's
// division-free seeding beside math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("Source", func(b *testing.B) {
		var s Source
		seed := int64(0)
		for b.Loop() {
			seed++
			s.Seed(seed)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		seed := int64(0)
		for b.Loop() {
			seed++
			s.Seed(seed)
		}
	})
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
