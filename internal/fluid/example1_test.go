package fluid

import (
	"fmt"

	"bufqos/internal/units"
)

// Example1 reproduces the closed-form dynamics of §2.1, Example 1: a
// conformant constant-rate flow (rate ρ₁) shares a FIFO buffer of size
// B with a greedy flow that always keeps its buffer share B₂ = B − B₁
// full, where B₁ = B·ρ₁/R.
type Example1 struct {
	Rho1 units.Rate
	R    units.Rate
	B    units.Bytes
	// B1 and B2 are the derived buffer shares.
	B1, B2 units.Bytes
}

// NewExample1 validates and derives the buffer split.
func NewExample1(rho1, r units.Rate, b units.Bytes) (*Example1, error) {
	if r <= 0 || rho1 <= 0 || rho1 >= r {
		return nil, fmt.Errorf("fluid: need 0 < ρ₁ < R, got ρ₁=%v R=%v", rho1, r)
	}
	if b <= 0 {
		return nil, fmt.Errorf("fluid: need positive buffer, got %v", b)
	}
	b1 := units.Bytes(float64(b) * rho1.BitsPerSecond() / r.BitsPerSecond())
	return &Example1{Rho1: rho1, R: r, B: b, B1: b1, B2: b - b1}, nil
}

// Interval describes the dynamics between the greedy flow's buffer
// "clearing" times t_{i-1} and t_i.
type Interval struct {
	// Index is i (1-based, as in the paper).
	Index int
	// Start and End are t_{i-1} and t_i in seconds.
	Start, End float64
	// L is the interval length l_i = t_i − t_{i-1}.
	L float64
	// R1 and R2 are the service rates of flows 1 and 2 during the
	// interval.
	R1, R2 units.Rate
}

// Intervals iterates the recursion
//
//	l_{i+1} = (ρ₁/R)·l_i + B₂/R,   R²ᵢ = B₂/l_i,   R¹ᵢ = R − R²ᵢ
//
// for n intervals starting from l₁ = B₂/R (during which flow 1 receives
// no service at all).
func (e *Example1) Intervals(n int) []Interval {
	out := make([]Interval, 0, n)
	r := e.R.BitsPerSecond()
	rho := e.Rho1.BitsPerSecond()
	b2 := e.B2.Bits()
	t := 0.0
	l := b2 / r // l₁
	for i := 1; i <= n; i++ {
		r2 := b2 / l
		r1 := r - r2
		if i == 1 {
			// The paper: R¹₁ = 0, R²₁ = R exactly.
			r1, r2 = 0, r
		}
		out = append(out, Interval{
			Index: i, Start: t, End: t + l, L: l,
			R1: units.Rate(r1), R2: units.Rate(r2),
		})
		t += l
		l = rho/r*l + b2/r
	}
	return out
}

// Limits returns the asymptotic values shown in §2.1:
//
//	l∞ = B₂/(R−ρ₁),  R¹∞ = ρ₁,  R²∞ = R−ρ₁
func (e *Example1) Limits() (l float64, r1, r2 units.Rate) {
	l = e.B2.Bits() / (e.R.BitsPerSecond() - e.Rho1.BitsPerSecond())
	return l, e.Rho1, e.R - e.Rho1
}

// FlowOneAsymptoticOccupancy returns the steady-state buffer occupancy
// of flow 1: ρ₁·l∞ = ρ₁·B₂/(R−ρ₁), which the paper shows approaches
// (but never exceeds) B₁ ... in fact equals B·ρ₁/R only in the limit of
// the allocation being tight. Returned in bytes.
func (e *Example1) FlowOneAsymptoticOccupancy() units.Bytes {
	l, _, _ := e.Limits()
	return units.Bytes(e.Rho1.BytesPerSecond() * l)
}
