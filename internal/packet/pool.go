package packet

import "fmt"

// poolState marks where a packet stands with respect to a Pool. The
// zero value is a packet no pool created (a composite literal in a test
// or a caller-owned array).
type poolState uint8

const (
	poolForeign poolState = iota
	poolLive              // handed out by Get, not yet released
	poolFree              // released; must not be touched again
)

// poolChunk is how many packets one growth step carves from the heap.
// Packets live inside their chunk for good, so a *Packet stays valid
// (and its address stable) however the pool grows.
const poolChunk = 256

// poisonOnRelease makes Put overwrite the fields every scheme keys on
// with values none accepts, so a component that reads a packet after
// giving it up fails loudly instead of seeing the next occupant. It is
// set only from this package's export_test.go.
var poisonOnRelease bool

// Pool recycles packets for one simulator: Get hands out a zeroed
// packet, Put takes one back. It is not safe for concurrent use — each
// event kernel owns one and touches it only from its own goroutine.
// Components reach it through sim.Simulator.NewPacket and
// sim.Simulator.Release; see Packet for who releases what.
type Pool struct {
	free    []*Packet // released packets, reused last-in first-out
	chunk   []Packet  // unused tail of the newest chunk
	created int64
	live    int64
}

// Get returns a zeroed packet. Recycled packets come back in reverse
// release order and fresh ones in chunk order, so for a fixed event
// sequence the same addresses are handed out in the same order.
func (pl *Pool) Get() *Packet {
	var p *Packet
	if k := len(pl.free); k > 0 {
		p = pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
		*p = Packet{}
	} else {
		if len(pl.chunk) == 0 {
			pl.chunk = make([]Packet, poolChunk)
			pl.created += poolChunk
		}
		p = &pl.chunk[0]
		pl.chunk = pl.chunk[1:]
	}
	p.pool = poolLive
	pl.live++
	return p
}

// Put releases p. A packet this pool did not create is accepted once
// and left to the garbage collector (its memory is the caller's);
// releasing any packet a second time panics — that is two owners, the
// bug the ownership rule exists to prevent.
func (pl *Pool) Put(p *Packet) {
	switch p.pool {
	case poolFree:
		panic(fmt.Sprintf("packet: %v released twice", p))
	case poolLive:
		pl.live--
		pl.free = append(pl.free, p)
	}
	p.pool = poolFree
	if poisonOnRelease {
		p.Flow, p.Seq, p.Size = -1, ^uint64(0), -1
	}
}

// Live returns how many packets are out: handed out by Get and not yet
// released. A packet that is never released stays counted, which is
// how a leak shows.
func (pl *Pool) Live() int64 { return pl.live }

// Created returns how many packets the pool has carved from the heap
// (chunk growth × chunk size).
func (pl *Pool) Created() int64 { return pl.created }
