package packet

import (
	"strings"
	"testing"
	"unsafe"
)

// TestPacketIsOneCacheLine: the pool mark rides in the flags' padding,
// so pooling did not grow the packet past the 64 bytes it had.
func TestPacketIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 64 {
		t.Errorf("Packet is %d bytes, want 64", size)
	}
}

// TestPoolRecyclesDeterministically pins the order the pool hands
// memory out in: fresh packets in chunk order, recycled ones last
// released first, and always zeroed.
func TestPoolRecyclesDeterministically(t *testing.T) {
	var pl Pool
	a, b, c := pl.Get(), pl.Get(), pl.Get()
	if pl.Created() != poolChunk || pl.Live() != 3 {
		t.Fatalf("after three Gets: created %d live %d, want %d and 3", pl.Created(), pl.Live(), poolChunk)
	}
	a.Flow, a.Seq, a.Conformant = 7, 9, true
	pl.Put(a)
	pl.Put(c)
	if pl.Live() != 1 {
		t.Fatalf("live %d after two releases, want 1", pl.Live())
	}
	if got := pl.Get(); got != c {
		t.Error("first Get after releasing a then c did not return c")
	}
	got := pl.Get()
	if got != a {
		t.Error("second Get did not return a")
	}
	if got.Flow != 0 || got.Seq != 0 || got.Conformant {
		t.Errorf("recycled packet not zeroed: %+v", got)
	}
	if next := pl.Get(); next == a || next == b || next == c {
		t.Error("empty free list handed out a live packet")
	}
	if pl.Created() != poolChunk {
		t.Errorf("created %d, want one chunk of %d", pl.Created(), poolChunk)
	}
}

// TestPoolGrowsByChunksWithStableAddresses: growth never moves a packet
// already handed out.
func TestPoolGrowsByChunksWithStableAddresses(t *testing.T) {
	var pl Pool
	first := pl.Get()
	first.Seq = 42
	for i := 0; i < 3*poolChunk; i++ {
		pl.Get()
	}
	if first.Seq != 42 {
		t.Error("growth disturbed a live packet")
	}
	if want := int64(4 * poolChunk); pl.Created() != want {
		t.Errorf("created %d, want %d", pl.Created(), want)
	}
}

// TestPoolForeignPacketReleasedOnce: a packet the pool did not create
// (a test's or a benchmark's own literal) may be released — it is left
// to the garbage collector, never handed out again — but only once.
func TestPoolForeignPacketReleasedOnce(t *testing.T) {
	var pl Pool
	foreign := &Packet{Flow: 3, Size: 500}
	pl.Put(foreign)
	if pl.Live() != 0 {
		t.Errorf("live %d after releasing a foreign packet, want 0", pl.Live())
	}
	if got := pl.Get(); got == foreign {
		t.Error("pool recycled memory it does not own")
	}
	mustPanic(t, "released twice", func() { pl.Put(foreign) })
}

// TestPoolDoubleReleasePanics reaches the ownership invariant's panic.
func TestPoolDoubleReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get()
	pl.Put(p)
	mustPanic(t, "released twice", func() { pl.Put(p) })
}

// TestPoolPoisonsReleasedPackets checks the use-after-release guard
// itself: under the test hook a released packet reads as no flow any
// scheme accepts, and its next life starts zeroed all the same.
func TestPoolPoisonsReleasedPackets(t *testing.T) {
	defer PoisonReleased()()
	var pl Pool
	p := pl.Get()
	p.Flow, p.Seq, p.Size = 1, 2, 500
	pl.Put(p)
	if p.Flow >= 0 || p.Size >= 0 || p.Seq != ^uint64(0) {
		t.Errorf("released packet not poisoned: %+v", p)
	}
	if q := pl.Get(); q != p || q.Flow != 0 || q.Seq != 0 || q.Size != 0 {
		t.Errorf("poisoned packet not recycled clean: %+v", q)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}
