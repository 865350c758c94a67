package online

import (
	"fmt"
	"math"
)

// maxOptNodes bounds the time-expanded graph so a pathological instance
// (a few arrivals spread over a huge horizon) fails loudly instead of
// exhausting memory. Solver-sized instances are far below this.
const maxOptNodes = 4 << 20

// checkSize refuses an instance whose time-expanded graph would exceed
// maxOptNodes, or that has more than maxOptNodes queues (classes). Opt
// builds that graph; Run steps through the same horizon and keeps state
// per queue, so both refuse alike. Each factor is bounded before the
// product is compared, so no input overflows.
func (in *Instance) checkSize() error {
	chains := 1
	if in.Model == ModelMultiQueue {
		chains = in.Queues
	}
	n := len(in.Arrivals)
	fits := in.Queues <= maxOptNodes && n < maxOptNodes
	if fits && n > 0 {
		last := in.Arrivals[n-1].At
		fits = last < maxOptNodes && in.horizon() <= maxOptNodes/(2*chains+1)
	}
	if !fits {
		return fmt.Errorf("online: instance %s too large for exact solver (more than %d nodes)", in.Name, maxOptNodes)
	}
	return nil
}

// Opt returns the exact offline-optimal benefit for the instance: the
// maximum total value any schedule can transmit, knowing the whole
// arrival sequence in advance and obeying the same buffer discipline as
// the online policies (occupancy after each step's arrivals is at most
// B per buffer; one transmission per step).
//
// The computation is a min-cost max-flow matching of packets to
// transmission slots on a time-expanded graph. Per chain c (one chain
// per queue in the multi-queue model; a single chain for the shared
// buffer) and step t:
//
//	source → in(c, at)     cap 1, cost −value   (one edge per packet)
//	in(c,t) → out(c,t)     cap B                (occupancy after arrivals)
//	out(c,t) → in(c,t+1)   cap B                (carry to the next step)
//	out(c,t) → slot(t)     cap 1                (this chain transmits at t)
//	slot(t) → sink         cap 1                (one transmission per step)
//
// Only source edges have negative cost, so the residual graph has no
// negative cycles and successive shortest paths (SPFA) augmenting while
// the path cost stays negative yield the maximum-benefit flow. Each
// augmentation routes exactly one packet (source edges have unit
// capacity), so the loop runs at most len(Arrivals) times.
func Opt(in *Instance) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if err := in.checkSize(); err != nil {
		return 0, err
	}
	if len(in.Arrivals) == 0 {
		return 0, nil
	}
	chains := 1
	if in.Model == ModelMultiQueue {
		chains = in.Queues
	}
	T := in.horizon()
	// Node layout: 0 = source, 1 = sink, then per step t the block
	// [slot(t), in(0,t), out(0,t), in(1,t), out(1,t), …].
	block := 1 + 2*chains
	nodes := 2 + block*T
	slot := func(t int) int { return 2 + block*t }
	inN := func(c, t int) int { return 2 + block*t + 1 + 2*c }
	outN := func(c, t int) int { return 2 + block*t + 2 + 2*c }

	g := newFlowGraph(nodes)
	capB := int64(in.Buffer)
	for t := 0; t < T; t++ {
		g.addEdge(slot(t), 1, 1, 0)
		for c := 0; c < chains; c++ {
			g.addEdge(inN(c, t), outN(c, t), capB, 0)
			g.addEdge(outN(c, t), slot(t), 1, 0)
			if t+1 < T {
				g.addEdge(outN(c, t), inN(c, t+1), capB, 0)
			}
		}
	}
	for _, a := range in.Arrivals {
		c := 0
		if in.Model == ModelMultiQueue {
			c = a.Queue
		}
		g.addEdge(0, inN(c, a.At), 1, -a.Value)
	}

	var benefit float64
	for {
		cost, ok := g.augment(0, 1)
		if !ok || cost >= 0 {
			return benefit, nil
		}
		benefit += -cost
	}
}

// flowGraph is a minimal successive-shortest-paths min-cost max-flow
// implementation (adjacency lists of paired residual edges, SPFA for
// shortest paths — costs can be negative but no negative cycles exist
// in the graphs Opt builds).
type flowGraph struct {
	head []int // first edge index per node, -1 terminated lists
	next []int
	to   []int
	cap  []int64
	cost []float64
}

func newFlowGraph(nodes int) *flowGraph {
	head := make([]int, nodes)
	for i := range head {
		head[i] = -1
	}
	return &flowGraph{head: head}
}

// addEdge appends a directed edge and its zero-capacity reverse twin
// (twin index = edge index ^ 1).
func (g *flowGraph) addEdge(from, to int, capacity int64, cost float64) {
	g.pushEdge(from, to, capacity, cost)
	g.pushEdge(to, from, 0, -cost)
}

func (g *flowGraph) pushEdge(from, to int, capacity int64, cost float64) {
	g.next = append(g.next, g.head[from])
	g.head[from] = len(g.to)
	g.to = append(g.to, to)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
}

// augment finds a minimum-cost source→sink path in the residual graph
// and pushes one unit of flow along it, returning the path cost. ok is
// false when the sink is unreachable.
func (g *flowGraph) augment(source, sink int) (float64, bool) {
	n := len(g.head)
	dist := make([]float64, n)
	prev := make([]int, n) // edge used to reach the node
	inQueue := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[source] = 0
	queue := []int{source}
	inQueue[source] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for e := g.head[u]; e >= 0; e = g.next[e] {
			if g.cap[e] <= 0 {
				continue
			}
			v := g.to[e]
			if d := dist[u] + g.cost[e]; d < dist[v] {
				dist[v] = d
				prev[v] = e
				if !inQueue[v] {
					queue = append(queue, v)
					inQueue[v] = true
				}
			}
		}
	}
	if prev[sink] < 0 {
		return 0, false
	}
	// Source edges have unit capacity, so the bottleneck is always 1.
	for v := sink; v != source; {
		e := prev[v]
		g.cap[e]--
		g.cap[e^1]++
		v = g.to[e^1]
	}
	return dist[sink], true
}
