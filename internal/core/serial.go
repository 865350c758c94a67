package core

import (
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// SerialAdmitter is one link's admission book with its admitted
// multiset: a Region plus a count per admitted spec, so Release can
// refuse a spec that is not currently admitted in O(1). It is the
// single-goroutine implementation of Admitter (examples/admission and
// the benchmark's replay oracle use it); a concurrent control plane
// uses ShardedAdmitter, whose shards are bare Regions behind a mutex.
type SerialAdmitter struct {
	region   Region
	admitted map[packet.FlowSpec]int
}

var _ Admitter = (*SerialAdmitter)(nil)

// NewSerialAdmitter returns an empty admitter for a link of the given
// rate and total buffer.
func NewSerialAdmitter(d Discipline, rate units.Rate, buffer units.Bytes) *SerialAdmitter {
	return &SerialAdmitter{
		region:   NewRegion(LinkConfig{Discipline: d, Rate: rate, Buffer: buffer}),
		admitted: make(map[packet.FlowSpec]int),
	}
}

// NumFlows returns the number of admitted flows.
func (a *SerialAdmitter) NumFlows() int { return a.region.agg.NumFlows }

// Utilization returns the reserved utilization u = Σρ/R of the admitted
// set.
func (a *SerialAdmitter) Utilization() float64 { return a.region.agg.Utilization() }

// Check reports whether spec fits without admitting it.
func (a *SerialAdmitter) Check(spec packet.FlowSpec) RejectReason { return a.region.Check(spec) }

// Admit adds spec to the admitted set when it fits, returning the
// decision.
func (a *SerialAdmitter) Admit(spec packet.FlowSpec) RejectReason {
	r := a.region.Check(spec)
	if r == Accepted {
		a.admitted[spec]++
		a.region.Add(spec)
	}
	return r
}

// Release removes one admitted instance of spec; it returns false when
// none is admitted. Release is fully idempotent: a double release or a
// release of a never-admitted spec leaves the aggregate (Σρ, Σσ)
// untouched. The sums are subtracted, and are exactly zero again once
// the link is empty (Region.Remove).
func (a *SerialAdmitter) Release(spec packet.FlowSpec) bool {
	n, ok := a.admitted[spec]
	if !ok {
		return false
	}
	if n == 1 {
		delete(a.admitted, spec)
	} else {
		a.admitted[spec] = n - 1
	}
	a.region.Remove(spec)
	return true
}

// Snapshot returns the admitted aggregate.
func (a *SerialAdmitter) Snapshot() AdmissionSnapshot { return a.region.Snapshot() }
