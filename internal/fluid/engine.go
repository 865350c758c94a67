// Package fluid implements the paper's fluid-model analysis: a
// discretized fluid FIFO engine for verifying Propositions 1 and 2
// numerically. Its tests also hold the closed-form Example 1 dynamics of
// §2.1 and the burst-potential process of equation (3), as oracles.
package fluid

import (
	"fmt"
	"math"
)

// Engine is a discretized fluid FIFO multiplexer with per-flow
// occupancy thresholds — the exact model of §2. Fluid is admitted up to
// each flow's threshold, queued in arrival order (slugs of interleaved
// per-flow volume), and drained at the link rate. All volumes are in
// bits, rates in bits/s, time in seconds.
//
// Each call to Step advances the model by dt: first the server drains
// R·dt bits from the head of the queue, then new arrivals are admitted
// against the thresholds. Greedy flows (see SetGreedy) top their
// occupancy up to their threshold every step, modelling the paper's
// "greedy" competitor whose Q(t) = B₂ for all t.
type Engine struct {
	R          float64   // link rate, bits/s
	Thresholds []float64 // per-flow occupancy caps, bits

	dt    float64
	now   float64
	queue []slug
	head  int
	occ   []float64 // per-flow occupancy, bits

	greedy []bool

	// Cumulative per-flow accounting, bits.
	Offered  []float64
	Admitted []float64
	Dropped  []float64
	Departed []float64
}

type slug struct {
	flow int
	vol  float64
}

// NewEngine creates a fluid engine with the given link rate (bits/s),
// per-flow thresholds (bits) and time step dt (seconds).
func NewEngine(r float64, thresholds []float64, dt float64) *Engine {
	if r <= 0 || dt <= 0 {
		panic(fmt.Sprintf("fluid: invalid rate %v or dt %v", r, dt))
	}
	n := len(thresholds)
	if n == 0 {
		panic("fluid: no flows")
	}
	return &Engine{
		R: r, Thresholds: append([]float64(nil), thresholds...), dt: dt,
		occ:     make([]float64, n),
		greedy:  make([]bool, n),
		Offered: make([]float64, n), Admitted: make([]float64, n),
		Dropped: make([]float64, n), Departed: make([]float64, n),
	}
}

// SetGreedy marks a flow as greedy: each step it offers exactly enough
// fluid to keep its occupancy at its threshold.
func (e *Engine) SetGreedy(flow int) { e.greedy[flow] = true }

// Now returns the simulated time.
func (e *Engine) Now() float64 { return e.now }

// Occupancy returns a flow's current queued volume in bits.
func (e *Engine) Occupancy(flow int) float64 { return e.occ[flow] }

// Step advances the model by dt. arrivals[i] is the volume (bits) flow
// i offers during this step; greedy flows ignore their entry and top up
// instead.
func (e *Engine) Step(arrivals []float64) {
	if len(arrivals) != len(e.occ) {
		panic(fmt.Sprintf("fluid: %d arrival entries for %d flows", len(arrivals), len(e.occ)))
	}
	// Serve R·dt bits from the head of the FIFO.
	budget := e.R * e.dt
	for budget > 0 && e.head < len(e.queue) {
		s := &e.queue[e.head]
		take := math.Min(budget, s.vol)
		s.vol -= take
		budget -= take
		e.occ[s.flow] -= take
		e.Departed[s.flow] += take
		if s.vol <= 1e-12 {
			e.occ[s.flow] = math.Max(0, e.occ[s.flow])
			e.head++
		}
	}
	if e.head > 1024 && e.head*2 >= len(e.queue) {
		n := copy(e.queue, e.queue[e.head:])
		e.queue = e.queue[:n]
		e.head = 0
	}
	// Admit arrivals against thresholds.
	for i, offered := range arrivals {
		if e.greedy[i] {
			offered = math.Max(0, e.Thresholds[i]-e.occ[i])
		}
		if offered <= 0 {
			continue
		}
		e.Offered[i] += offered
		room := e.Thresholds[i] - e.occ[i]
		adm := math.Min(offered, math.Max(0, room))
		if adm > 0 {
			e.queue = append(e.queue, slug{flow: i, vol: adm})
			e.occ[i] += adm
			e.Admitted[i] += adm
		}
		e.Dropped[i] += offered - adm
	}
	e.now += e.dt
}

// Run advances the engine n steps, calling rates(t) for the per-flow
// arrival rates (bits/s) at the start of each step; the engine converts
// them to per-step volumes. Pass nil entries... rates must return a
// slice of length NumFlows.
func (e *Engine) Run(n int, rates func(t float64) []float64) {
	buf := make([]float64, len(e.occ))
	for i := 0; i < n; i++ {
		rs := rates(e.now)
		for j, r := range rs {
			buf[j] = r * e.dt
		}
		e.Step(buf)
	}
}

// ServiceRate returns flow's average departure rate (bits/s) over a
// window by sampling Departed before/after externally; helper for
// tests: returns cumulative departed bits divided by elapsed time.
func (e *Engine) ServiceRate(flow int) float64 {
	if e.now == 0 {
		return 0
	}
	return e.Departed[flow] / e.now
}
