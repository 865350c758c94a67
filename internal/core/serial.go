package core

import (
	"fmt"
	"slices"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// SerialAdmitter tracks the admitted flow set of a link and answers
// whether additional flows fit its schedulability region. It is the
// single-goroutine implementation of Admitter used by per-run
// simulation code (the topology engine's admission plan, the churn
// experiment); a concurrent control plane uses ShardedAdmitter instead.
type SerialAdmitter struct {
	discipline Discipline
	rate       units.Rate
	buffer     units.Bytes
	flows      []packet.FlowSpec
	sumRho     float64 // bits/s
	sumSigma   units.Bytes
}

var _ Admitter = (*SerialAdmitter)(nil)

// NewSerialAdmitter returns an empty admitter for a link of the given
// rate and total buffer.
func NewSerialAdmitter(d Discipline, rate units.Rate, buffer units.Bytes) *SerialAdmitter {
	if rate <= 0 || buffer <= 0 {
		panic(fmt.Sprintf("core: invalid link rate %v or buffer %v", rate, buffer))
	}
	return &SerialAdmitter{discipline: d, rate: rate, buffer: buffer}
}

// Grow reserves room for n more admitted flows, so a planner that knows
// the population it will admit (the topology engine, from each link's
// flow count) fills the admitted set without regrowing it.
func (a *SerialAdmitter) Grow(n int) { a.flows = slices.Grow(a.flows, n) }

// NumFlows returns the number of admitted flows.
func (a *SerialAdmitter) NumFlows() int { return len(a.flows) }

// Discipline returns the schedulability region the admitter enforces.
func (a *SerialAdmitter) Discipline() Discipline { return a.discipline }

// Rate returns the link rate R the admitter was built for.
func (a *SerialAdmitter) Rate() units.Rate { return a.rate }

// Buffer returns the total buffer B the admitter was built for.
func (a *SerialAdmitter) Buffer() units.Bytes { return a.buffer }

// SumSigma returns Σσ over the admitted set.
func (a *SerialAdmitter) SumSigma() units.Bytes { return a.sumSigma }

// Utilization returns the reserved utilization u = Σρ/R of the admitted
// set.
func (a *SerialAdmitter) Utilization() float64 {
	return a.sumRho / a.rate.BitsPerSecond()
}

// Check reports whether spec fits without admitting it.
func (a *SerialAdmitter) Check(spec packet.FlowSpec) RejectReason {
	return checkRegion(a.discipline, a.rate, a.buffer, a.sumRho, a.sumSigma, spec)
}

// Admit adds spec to the admitted set when it fits, returning the
// decision.
func (a *SerialAdmitter) Admit(spec packet.FlowSpec) RejectReason {
	r := a.Check(spec)
	if r != Accepted {
		return r
	}
	a.flows = append(a.flows, spec)
	a.sumRho += spec.TokenRate.BitsPerSecond()
	a.sumSigma += spec.BucketSize
	return Accepted
}

// Release removes a previously admitted flow matching spec; it returns
// false when no matching flow is found. Release is fully idempotent: a
// double release or a release of a never-admitted spec leaves the
// aggregate (Σρ, Σσ) untouched. After a successful release the sums are
// recomputed from the surviving set, so long admit/release churn never
// accumulates floating-point drift in Σρ — Utilization() is exactly the
// fold over the flows currently admitted.
func (a *SerialAdmitter) Release(spec packet.FlowSpec) bool {
	for i, f := range a.flows {
		if f == spec {
			a.flows = append(a.flows[:i], a.flows[i+1:]...)
			a.sumRho, a.sumSigma = 0, 0
			for _, f := range a.flows {
				a.sumRho += f.TokenRate.BitsPerSecond()
				a.sumSigma += f.BucketSize
			}
			return true
		}
	}
	return false
}

// Flows returns a copy of the admitted set.
func (a *SerialAdmitter) Flows() []packet.FlowSpec {
	return append([]packet.FlowSpec(nil), a.flows...)
}

// Snapshot returns the admitted aggregate.
func (a *SerialAdmitter) Snapshot() AdmissionSnapshot {
	return AdmissionSnapshot{
		Discipline: a.discipline,
		Rate:       a.rate,
		Buffer:     a.buffer,
		NumFlows:   len(a.flows),
		SumRho:     units.Rate(a.sumRho),
		SumSigma:   a.sumSigma,
	}
}
