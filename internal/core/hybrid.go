package core

import (
	"fmt"
	"math"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// Group is the aggregate profile of the flows assigned to one FIFO
// queue of the hybrid system: ρ̂ = Σρⱼ and σ̂ = Σσⱼ over its members.
type Group struct {
	Rho   units.Rate
	Sigma units.Bytes
}

// GroupFlows aggregates per-flow specs into per-queue groups using the
// queueOf mapping (queueOf[flow] = queue index in [0, k)).
func GroupFlows(specs []packet.FlowSpec, queueOf []int, k int) ([]Group, error) {
	if len(specs) != len(queueOf) {
		return nil, fmt.Errorf("core: %d specs but %d queue assignments", len(specs), len(queueOf))
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: need at least one queue, got %d", k)
	}
	groups := make([]Group, k)
	for i, s := range specs {
		q := queueOf[i]
		if q < 0 || q >= k {
			return nil, fmt.Errorf("core: flow %d assigned to invalid queue %d", i, q)
		}
		groups[q].Rho += s.TokenRate
		groups[q].Sigma += s.BucketSize
	}
	return groups, nil
}

// OptimalAlphas returns the Proposition 3 excess-capacity shares
//
//	αᵢ = √(σ̂ᵢρ̂ᵢ) / Σⱼ√(σ̂ⱼρ̂ⱼ)
//
// that minimize the hybrid system's total buffer requirement. Empty
// groups (ρ̂ = 0 or σ̂ = 0) get α = 0.
func OptimalAlphas(groups []Group) []float64 {
	alphas := make([]float64, len(groups))
	var s float64
	for i, g := range groups {
		alphas[i] = math.Sqrt(float64(g.Sigma) * g.Rho.BitsPerSecond())
		s += alphas[i]
	}
	if s == 0 {
		return alphas
	}
	for i := range alphas {
		alphas[i] /= s
	}
	return alphas
}

// AllocateHybrid returns the per-queue service rates of equation (16):
//
//	Rᵢ = ρ̂ᵢ + αᵢ·(R − ρ)
//
// with the optimal αᵢ of Proposition 3. It errors when the groups'
// total reserved rate meets or exceeds the link rate.
func AllocateHybrid(r units.Rate, groups []Group) ([]units.Rate, error) {
	var rho float64
	for _, g := range groups {
		rho += g.Rho.BitsPerSecond()
	}
	excess := r.BitsPerSecond() - rho
	if excess <= 0 {
		return nil, fmt.Errorf("core: reserved rate %v ≥ link rate %v", units.Rate(rho), r)
	}
	alphas := OptimalAlphas(groups)
	rates := make([]units.Rate, len(groups))
	for i, g := range groups {
		rates[i] = g.Rho + units.Rate(alphas[i]*excess)
	}
	return rates, nil
}

// HybridBufferPerQueue returns equation (18) under the optimal rate
// assignment:
//
//	Bᵢ = σ̂ᵢ + S·√(σ̂ᵢρ̂ᵢ)/(R − ρ),   S = Σⱼ√(σ̂ⱼρ̂ⱼ)
func HybridBufferPerQueue(r units.Rate, groups []Group) ([]units.Bytes, error) {
	var rho float64
	for _, g := range groups {
		rho += g.Rho.BitsPerSecond()
	}
	if rho >= r.BitsPerSecond() {
		return nil, fmt.Errorf("core: reserved rate %v ≥ link rate %v", units.Rate(rho), r)
	}
	// Work in bit·(bits/s) units: σ in bits for the S terms, then back
	// to bytes.
	var s float64
	roots := make([]float64, len(groups))
	for i, g := range groups {
		roots[i] = math.Sqrt(g.Sigma.Bits() * g.Rho.BitsPerSecond())
		s += roots[i]
	}
	out := make([]units.Bytes, len(groups))
	for i, g := range groups {
		bits := g.Sigma.Bits() + s*roots[i]/(r.BitsPerSecond()-rho)
		out[i] = units.Bytes(math.Ceil(bits / 8))
	}
	return out, nil
}

// HybridBufferTotal returns equation (19): the minimum total buffer of
// the optimally allocated hybrid system,
//
//	B_hybrid = σ + S²/(R − ρ)
func HybridBufferTotal(r units.Rate, groups []Group) (units.Bytes, error) {
	per, err := HybridBufferPerQueue(r, groups)
	if err != nil {
		return 0, err
	}
	var sum units.Bytes
	for _, b := range per {
		sum += b
	}
	return sum, nil
}

// BufferSavings returns equation (17): B_FIFO − B_hybrid, the buffer
// saved by splitting the single FIFO queue into the given groups under
// the optimal rate assignment. The result is always non-negative.
func BufferSavings(r units.Rate, groups []Group) (units.Bytes, error) {
	var rho float64
	var sigma units.Bytes
	for _, g := range groups {
		rho += g.Rho.BitsPerSecond()
		sigma += g.Sigma
	}
	if rho >= r.BitsPerSecond() {
		return 0, fmt.Errorf("core: reserved rate %v ≥ link rate %v", units.Rate(rho), r)
	}
	bfifo := r.BitsPerSecond() * sigma.Bits() / (r.BitsPerSecond() - rho)
	bhyb, err := HybridBufferTotal(r, groups)
	if err != nil {
		return 0, err
	}
	d := units.Bytes(bfifo/8) - bhyb
	if d < 0 {
		// Rounding in HybridBufferTotal can push the difference a few
		// bytes negative; the analytical result is ≥ 0.
		d = 0
	}
	return d, nil
}

// HybridThresholds computes the per-flow thresholds used in §4.2: flow
// j in queue i gets σⱼ + (ρⱼ/ρ̂ᵢ)·Bᵢ, where Bᵢ is the buffer partition
// of its queue.
func HybridThresholds(specs []packet.FlowSpec, queueOf []int, groups []Group, queueBuf []units.Bytes) ([]units.Bytes, error) {
	if len(specs) != len(queueOf) {
		return nil, fmt.Errorf("core: %d specs but %d queue assignments", len(specs), len(queueOf))
	}
	th := make([]units.Bytes, len(specs))
	for j, s := range specs {
		q := queueOf[j]
		if q < 0 || q >= len(groups) || q >= len(queueBuf) {
			return nil, fmt.Errorf("core: flow %d assigned to invalid queue %d", j, q)
		}
		g := groups[q]
		if g.Rho <= 0 {
			return nil, fmt.Errorf("core: queue %d has zero reserved rate", q)
		}
		th[j] = s.BucketSize + units.Bytes(float64(queueBuf[q])*s.TokenRate.BitsPerSecond()/g.Rho.BitsPerSecond())
	}
	return th, nil
}

// PartitionBuffer splits a total buffer among queues in proportion to
// their minimum requirements, the §4.2 rule
// Bᵢ = B · Bᵢ_min / Σⱼ Bⱼ_min.
func PartitionBuffer(total units.Bytes, minPerQueue []units.Bytes) []units.Bytes {
	var sum units.Bytes
	for _, b := range minPerQueue {
		sum += b
	}
	out := make([]units.Bytes, len(minPerQueue))
	if sum == 0 {
		return out
	}
	for i, b := range minPerQueue {
		out[i] = units.Bytes(float64(total) * float64(b) / float64(sum))
	}
	return out
}
