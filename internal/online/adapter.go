package online

import (
	"slices"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/units"
)

// Algo is one running policy over an instance: an internal/buffer
// combined queue/manager, the same type the scheme registry runs on a
// simulated link, driven in discrete steps. Every arrival is a 1-byte
// packet of its flow, so a buffer of B bytes holds B packets. The
// harness (or an adaptive adversary) offers all of a step's arrivals in
// order, then calls Transmit once.
type Algo struct {
	q    queue
	flow func(Arrival) int // the arrival's flow in q
	pool packet.Pool
	kept []Arrival // admitted arrivals; a packet's Seq indexes them
}

// queue is what the adapter calls of an internal/buffer class policy,
// which is a manager and the link's scheduler at once.
type queue interface {
	Admit(flow int, size units.Bytes) bool
	Release(flow int, size units.Bytes)
	Enqueue(p *packet.Packet)
	Dequeue() *packet.Packet
	Len() int
}

// newAlgo drives q. Pushed-out victims go straight back to the pool.
func newAlgo(q queue, flow func(Arrival) int) *Algo {
	g := &Algo{q: q, flow: flow}
	if pn, ok := q.(sched.PushoutNotifier); ok {
		pn.SetOnPushout(g.pool.Put)
	}
	return g
}

// Arrive offers a unit packet; it reports whether the packet was kept
// (possibly after pushing out a buffered one).
func (g *Algo) Arrive(a Arrival) bool {
	flow := g.flow(a)
	if !g.q.Admit(flow, 1) {
		return false
	}
	p := g.pool.Get()
	p.Flow, p.Size, p.Seq = flow, 1, uint64(len(g.kept))
	g.kept = append(g.kept, a)
	g.q.Enqueue(p)
	return true
}

// Transmit removes and returns the packet the policy's service
// discipline sends this step; ok is false when the buffer is empty.
func (g *Algo) Transmit() (a Arrival, ok bool) {
	p := g.q.Dequeue()
	if p == nil {
		return Arrival{}, false
	}
	a = g.kept[p.Seq]
	g.q.Release(p.Flow, p.Size)
	g.pool.Put(p)
	return a, true
}

// Backlog returns the number of buffered packets.
func (g *Algo) Backlog() int { return g.q.Len() }

// slots is the instance's buffer as a byte capacity. A buffer longer
// than the whole sequence never fills, so it is capped there, which
// keeps Buffer·Queues from overflowing.
func slots(in *Instance) units.Bytes {
	return units.Bytes(min(in.Buffer, max(1, len(in.Arrivals))))
}

// queueFlow makes the arrival's queue (or class) its flow.
func queueFlow(a Arrival) int { return a.Queue }

// identity is the flow→class map of a policy whose flows are its
// classes.
func identity(n int) []int {
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i
	}
	return classOf
}

// valueGreedy is the value model's greedy policy as buffer.ClassGreedy:
// a flow is the rank of its value among the instance's distinct values,
// so the lowest class below an arrival is the cheapest packet worth
// less than it.
func valueGreedy(in *Instance) *Algo {
	values := make([]float64, 0, len(in.Arrivals))
	for _, a := range in.Arrivals {
		values = append(values, a.Value)
	}
	slices.Sort(values)
	values = slices.Compact(values)
	n := max(1, len(values))
	return newAlgo(buffer.NewClassGreedy(slots(in), identity(n), n), func(a Arrival) int {
		rank, _ := slices.BinarySearch(values, a.Value)
		return rank
	})
}

// nonPreemptiveGreedy is buffer.ClassGreedy with every packet in class
// 0: with no lower class there is never a victim, so an arrival is
// admitted exactly when there is room.
func nonPreemptiveGreedy(in *Instance) *Algo {
	return newAlgo(buffer.NewClassGreedy(slots(in), []int{0}, 1), func(Arrival) int { return 0 })
}

// classSeg is buffer.ClassSeg with the arrival's queue as its class.
func classSeg(in *Instance) *Algo {
	return newAlgo(buffer.NewClassSeg(slots(in), identity(in.Queues), in.Queues), queueFlow)
}

// multiQueue is buffer.MultiQueue with one class per queue. Its byte
// quota is capacity/queues, so a capacity of Buffer·Queues gives each
// queue exactly Buffer slots.
func multiQueue(in *Instance, semi bool) *Algo {
	capacity := slots(in) * units.Bytes(in.Queues)
	return newAlgo(buffer.NewMultiQueue(capacity, identity(in.Queues), in.Queues, semi), queueFlow)
}
