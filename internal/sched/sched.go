// Package sched implements the link schedulers the paper compares:
// FIFO, packetized Weighted Fair Queueing (WFQ) with exact GPS
// virtual-time tracking, and the §4 hybrid architecture (a small WFQ
// serving k FIFO queues). It also provides the Link server that drains
// a scheduler at the link rate and drives buffer management and
// statistics. Policies that are both queue and buffer manager (pushout
// and the class policies) live with the other admission policies in
// internal/buffer and plug into a Link as both.
package sched

import (
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// Scheduler orders admitted packets for transmission.
type Scheduler interface {
	// Enqueue accepts an admitted packet.
	Enqueue(p *packet.Packet)
	// Dequeue removes and returns the next packet to transmit, or nil
	// when no packet is queued.
	Dequeue() *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Backlog returns the queued bytes.
	Backlog() units.Bytes
}

// FIFO is the first-in-first-out scheduler at the heart of the paper's
// proposal: constant-time, no per-flow state.
type FIFO struct {
	q       []*packet.Packet
	head    int
	backlog units.Bytes
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO() *FIFO { return &FIFO{} }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(p *packet.Packet) {
	f.q = append(f.q, p)
	f.backlog += p.Size
}

// Dequeue implements Scheduler.
func (f *FIFO) Dequeue() *packet.Packet {
	if f.head >= len(f.q) {
		return nil
	}
	p := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	f.backlog -= p.Size
	// Compact once the dead prefix dominates, keeping amortized O(1).
	if f.head > 64 && f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
	return p
}

// Len implements Scheduler.
func (f *FIFO) Len() int { return len(f.q) - f.head }

// Backlog implements Scheduler.
func (f *FIFO) Backlog() units.Bytes { return f.backlog }
