package online_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bufqos/internal/online"
	"bufqos/internal/sim"
	"bufqos/internal/validate"
)

// The abstract-model policies below are the implementations
// internal/online ran before it drove internal/buffer's policies, kept
// verbatim as the reference the adapter must match arrival for arrival
// and step for step (TestAdapterMatchesReference).

// refAlgo is the interface the reference policies implemented.
type refAlgo interface {
	Arrive(a online.Arrival) bool
	Transmit() (a online.Arrival, ok bool)
	Backlog() int
}

// refPolicies builds each registered policy's reference.
var refPolicies = map[string]func(queues, buffer int) refAlgo{
	"greedy":     func(_, buffer int) refAlgo { return &sharedGreedy{buffer: buffer, preemptive: true} },
	"greedy-np":  func(_, buffer int) refAlgo { return &sharedGreedy{buffer: buffer} },
	"cseg":       func(queues, buffer int) refAlgo { return newClassSegAlgo(queues, buffer) },
	"lqf":        func(queues, buffer int) refAlgo { return newMultiQueueAlgo(queues, buffer, false) },
	"semigreedy": func(queues, buffer int) refAlgo { return newMultiQueueAlgo(queues, buffer, true) },
}

// stepTrace is what one run did.
type stepTrace struct {
	Accepts []bool // per arrival, in offer order
	Sent    []int  // the arrival index of each transmitted packet
	Backlog []int  // per step, after its transmission
}

// trace drives a policy the way online.Run does, over an instance
// already validated. Each arrival is offered with At set to its index,
// which no policy reads, so a transmitted packet names its arrival.
func trace(in *online.Instance, p refAlgo) stepTrace {
	var tr stepTrace
	i := 0
	for t := 0; ; t++ {
		for ; i < len(in.Arrivals) && in.Arrivals[i].At == t; i++ {
			a := in.Arrivals[i]
			a.At = i
			tr.Accepts = append(tr.Accepts, p.Arrive(a))
		}
		if a, ok := p.Transmit(); ok {
			tr.Sent = append(tr.Sent, a.At)
		}
		tr.Backlog = append(tr.Backlog, p.Backlog())
		if i >= len(in.Arrivals) && p.Backlog() == 0 {
			return tr
		}
	}
}

// runAdapter traces the policy's adapter and checks that every packet
// it took from its pool came back: accepted = transmitted + pushed out.
func runAdapter(t *testing.T, p online.Policy, in *online.Instance) stepTrace {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	g := p.New(in)
	tr := trace(in, g)
	if live := g.Live(); live != 0 {
		t.Fatalf("%s on %s: %d packets never returned to the pool", p.Name, describe(in), live)
	}
	return tr
}

func describe(in *online.Instance) string {
	return fmt.Sprintf("%s (m=%d, B=%d) %+v", in.Name, in.Queues, in.Buffer, in.Arrivals)
}

// checkAgainstReference runs the adapter and the reference on the same
// instance and requires identical accepts, transmissions and backlog.
func checkAgainstReference(t *testing.T, p online.Policy, in *online.Instance) {
	t.Helper()
	got := runAdapter(t, p, in)
	want := trace(in, refPolicies[p.Name](in.Queues, in.Buffer))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %s:\n adapter   %+v\n reference %+v", p.Name, describe(in), got, want)
	}
}

// TestAdapterMatchesReference checks every registered policy against
// its reference on two input sets: every instance of the default qcomp
// sweep (each adversary × policy × buffer, replications seeded as
// validate.Compete seeds them), and 10⁴ random instances per model
// whose shared-model values are drawn independently of the class, so
// value order and class order disagree.
func TestAdapterMatchesReference(t *testing.T) {
	const queues, reps = 3, 5
	buffers := []int{1, 2, 4}
	cell := 0
	for _, p := range online.Policies() {
		for _, adv := range validate.Adversaries() {
			if adv.Model != "" && adv.Model != p.Model {
				continue
			}
			for _, b := range buffers {
				n := reps
				if adv.Deterministic {
					n = 1
				}
				for r := 0; r < n; r++ {
					rng := sim.NewRand(sim.DeriveSeed(1, cell*1000+r))
					checkAgainstReference(t, p, adv.Gen(rng, p, queues, b))
				}
				cell++
			}
		}
	}

	r := rand.New(rand.NewSource(35))
	for _, model := range []online.Model{online.ModelShared, online.ModelMultiQueue} {
		for trial := 0; trial < 10000; trial++ {
			in := &online.Instance{
				Name:   fmt.Sprintf("random-%d", trial),
				Model:  model,
				Queues: 1 + r.Intn(4),
				Buffer: 1 + r.Intn(5),
			}
			for k := r.Intn(30); k > 0; k-- {
				in.Arrivals = append(in.Arrivals, online.Arrival{
					At:    r.Intn(12),
					Queue: r.Intn(in.Queues),
					Value: float64(1 + r.Intn(6)),
				})
			}
			for _, p := range online.Policies() {
				if p.Model == model {
					checkAgainstReference(t, p, in)
				}
			}
		}
	}
}

// sharedGreedy is the single shared FIFO buffer of the value model,
// with or without preemption.
type sharedGreedy struct {
	buffer     int
	preemptive bool
	q          []online.Arrival
}

// Arrive implements refAlgo.
func (g *sharedGreedy) Arrive(a online.Arrival) bool {
	if len(g.q) < g.buffer {
		g.q = append(g.q, a)
		return true
	}
	if !g.preemptive {
		return false
	}
	// Preempt the newest minimum-value packet, but only for a strictly
	// more valuable arrival.
	min := -1
	for i, b := range g.q {
		if min < 0 || b.Value <= g.q[min].Value {
			min = i
		}
	}
	if min < 0 || g.q[min].Value >= a.Value {
		return false
	}
	g.q = append(g.q[:min], g.q[min+1:]...)
	g.q = append(g.q, a)
	return true
}

// Transmit implements refAlgo (FIFO service).
func (g *sharedGreedy) Transmit() (online.Arrival, bool) {
	if len(g.q) == 0 {
		return online.Arrival{}, false
	}
	a := g.q[0]
	g.q = g.q[1:]
	return a, true
}

// Backlog implements refAlgo.
func (g *sharedGreedy) Backlog() int { return len(g.q) }

// classSegAlgo segregates the shared buffer by class: one FIFO queue
// per class, strict-priority service (highest class first), greedy
// admission that preempts the newest packet of the lowest buffered
// class when the shared buffer overflows with a higher-class arrival.
type classSegAlgo struct {
	buffer int
	qs     [][]online.Arrival
	total  int
}

func newClassSegAlgo(classes, buffer int) *classSegAlgo {
	return &classSegAlgo{buffer: buffer, qs: make([][]online.Arrival, classes)}
}

// Arrive implements refAlgo.
func (c *classSegAlgo) Arrive(a online.Arrival) bool {
	if c.total < c.buffer {
		c.qs[a.Queue] = append(c.qs[a.Queue], a)
		c.total++
		return true
	}
	// Preempt from the lowest nonempty class strictly below the
	// arrival's class.
	for cls := 0; cls < a.Queue; cls++ {
		if n := len(c.qs[cls]); n > 0 {
			c.qs[cls] = c.qs[cls][:n-1]
			c.qs[a.Queue] = append(c.qs[a.Queue], a)
			return true
		}
	}
	return false
}

// Transmit implements refAlgo: strict priority, FIFO within a class.
func (c *classSegAlgo) Transmit() (online.Arrival, bool) {
	for cls := len(c.qs) - 1; cls >= 0; cls-- {
		if len(c.qs[cls]) > 0 {
			a := c.qs[cls][0]
			c.qs[cls] = c.qs[cls][1:]
			c.total--
			return a, true
		}
	}
	return online.Arrival{}, false
}

// Backlog implements refAlgo.
func (c *classSegAlgo) Backlog() int { return c.total }

// multiQueueAlgo is the multi-queue switch: per-queue B-slot buffers,
// non-preemptive admission, one transmission per step from the queue
// the service rule picks.
type multiQueueAlgo struct {
	buffer int
	semi   bool
	qs     [][]online.Arrival
	total  int
	// seq orders heads for the semi-greedy oldest-head rule; ties in
	// At are broken by arrival order.
	seq  int
	seqs [][]int
}

func newMultiQueueAlgo(queues, buffer int, semi bool) *multiQueueAlgo {
	return &multiQueueAlgo{
		buffer: buffer,
		semi:   semi,
		qs:     make([][]online.Arrival, queues),
		seqs:   make([][]int, queues),
	}
}

// Arrive implements refAlgo.
func (m *multiQueueAlgo) Arrive(a online.Arrival) bool {
	if len(m.qs[a.Queue]) >= m.buffer {
		return false
	}
	m.qs[a.Queue] = append(m.qs[a.Queue], a)
	m.seqs[a.Queue] = append(m.seqs[a.Queue], m.seq)
	m.seq++
	m.total++
	return true
}

// Transmit implements refAlgo.
func (m *multiQueueAlgo) Transmit() (online.Arrival, bool) {
	if m.total == 0 {
		return online.Arrival{}, false
	}
	pick := -1
	if m.semi {
		// Serve the fullest queue strictly above half capacity…
		for q := range m.qs {
			if 2*len(m.qs[q]) > m.buffer && (pick < 0 || len(m.qs[q]) > len(m.qs[pick])) {
				pick = q
			}
		}
		// …otherwise the queue whose head packet has waited longest.
		if pick < 0 {
			for q := range m.qs {
				if len(m.qs[q]) > 0 && (pick < 0 || m.seqs[q][0] < m.seqs[pick][0]) {
					pick = q
				}
			}
		}
	} else {
		for q := range m.qs {
			if len(m.qs[q]) > 0 && (pick < 0 || len(m.qs[q]) > len(m.qs[pick])) {
				pick = q
			}
		}
	}
	a := m.qs[pick][0]
	m.qs[pick] = m.qs[pick][1:]
	m.seqs[pick] = m.seqs[pick][1:]
	m.total--
	return a, true
}

// Backlog implements refAlgo.
func (m *multiQueueAlgo) Backlog() int { return m.total }
