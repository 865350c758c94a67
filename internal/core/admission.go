package core

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// RejectReason classifies why an admission request fails, following the
// §2.3 distinction: "the scheduler is deemed to be bandwidth limited
// ... conversely it is considered to be buffer limited".
type RejectReason int

const (
	// Accepted means the flow fits.
	Accepted RejectReason = iota
	// BandwidthLimited means Σρ would exceed the link rate (eq. 5/7).
	BandwidthLimited
	// BufferLimited means the buffer constraint fails (eq. 6/8).
	BufferLimited
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case BandwidthLimited:
		return "bandwidth-limited"
	case BufferLimited:
		return "buffer-limited"
	default:
		return fmt.Sprintf("RejectReason(%d)", int(r))
	}
}

// Discipline selects which schedulability region an admitter enforces.
type Discipline int

const (
	// DisciplineWFQ uses equations (5)–(6): R ≥ Σρ, B ≥ Σσ.
	DisciplineWFQ Discipline = iota
	// DisciplineFIFO uses equations (7)–(8): R ≥ Σρ and
	// B ≥ (B/R)·Σρ + Σσ.
	DisciplineFIFO
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	if d == DisciplineWFQ {
		return "WFQ"
	}
	return "FIFO+thresholds"
}

// Admitter is the narrow admission-control surface of one link: answer
// whether a flow fits the link's schedulability region, commit it,
// release it, and export a consistent view of the admitted aggregate.
// Two implementations exist, on the same book: SerialAdmitter
// (single-goroutine) and ShardedAdmitter link views (a SerialAdmitter
// behind a mutex, safe for concurrent callers).
type Admitter interface {
	// Check reports whether spec fits without admitting it.
	Check(spec packet.FlowSpec) RejectReason
	// Admit adds spec to the admitted set when it fits, returning the
	// decision.
	Admit(spec packet.FlowSpec) RejectReason
	// Release removes one previously admitted instance of spec. It is
	// idempotent: releasing a spec that is not currently admitted
	// returns false and leaves the aggregate unchanged.
	Release(spec packet.FlowSpec) bool
	// Snapshot returns a consistent copy of the admitted aggregate.
	Snapshot() AdmissionSnapshot
}

// AdmissionSnapshot is a point-in-time view of one link's admitted
// aggregate — everything the admission regions (eqs. 5–8) depend on.
type AdmissionSnapshot struct {
	Discipline Discipline
	Rate       units.Rate
	Buffer     units.Bytes
	NumFlows   int
	// SumRho is Σρ over the admitted set.
	SumRho units.Rate
	// SumSigma is Σσ over the admitted set.
	SumSigma units.Bytes
}

// Utilization returns the reserved utilization u = Σρ/R.
func (s AdmissionSnapshot) Utilization() float64 {
	return s.SumRho.BitsPerSecond() / s.Rate.BitsPerSecond()
}

// LinkConfig declares one link's admission region: the discipline's
// schedulability region plus the link's physical parameters.
type LinkConfig struct {
	Discipline Discipline
	Rate       units.Rate
	Buffer     units.Bytes
}

// Region is one link's admission book: the link (discipline, R, B) and
// the aggregate (n, Σρ, Σσ) of the flows booked on it. It is the only
// place the paper's schedulability regions (eqs. 5–8) are evaluated
// and their sums kept; every admitter — the offline engine's plan, the
// serial admitter and the daemon's shards — decides through it. A
// Region does not know which flows it holds: a caller that must refuse
// to release a flow it never admitted uses SerialAdmitter, which keeps
// the admitted multiset beside it.
type Region struct {
	// agg is the link and its booked aggregate, in the form Snapshot
	// exports.
	agg AdmissionSnapshot
}

// NewRegion returns the empty book of a link.
func NewRegion(link LinkConfig) Region {
	if link.Rate <= 0 || link.Buffer <= 0 {
		panic(fmt.Sprintf("core: invalid link rate %v or buffer %v", link.Rate, link.Buffer))
	}
	return Region{AdmissionSnapshot{Discipline: link.Discipline, Rate: link.Rate, Buffer: link.Buffer}}
}

// Check reports whether spec fits the region on top of the booked
// aggregate.
func (g *Region) Check(spec packet.FlowSpec) RejectReason {
	if err := spec.Validate(); err != nil {
		return BandwidthLimited
	}
	rate := g.agg.Rate.BitsPerSecond()
	rho := (g.agg.SumRho + spec.TokenRate).BitsPerSecond()
	sigma := float64(g.agg.SumSigma + spec.BucketSize)
	if rho > rate {
		return BandwidthLimited
	}
	switch g.agg.Discipline {
	case DisciplineWFQ:
		if sigma > float64(g.agg.Buffer) {
			return BufferLimited
		}
	case DisciplineFIFO:
		// B ≥ (B/R)·Σρ + Σσ  ⇔  B·(1 − Σρ/R) ≥ Σσ.
		if float64(g.agg.Buffer)*(1-rho/rate) < sigma {
			return BufferLimited
		}
	}
	return Accepted
}

// Add books spec without checking it.
func (g *Region) Add(spec packet.FlowSpec) {
	g.agg.NumFlows++
	g.agg.SumRho += spec.TokenRate
	g.agg.SumSigma += spec.BucketSize
}

// Remove unbooks spec, which must have been added. The sums are
// subtracted, and reset to exactly zero when the link empties, whatever
// floating-point residue the churn left behind.
func (g *Region) Remove(spec packet.FlowSpec) {
	g.agg.NumFlows--
	g.agg.SumRho -= spec.TokenRate
	g.agg.SumSigma -= spec.BucketSize
	if g.agg.NumFlows == 0 {
		g.agg.SumRho, g.agg.SumSigma = 0, 0
	}
}

// Snapshot returns the booked aggregate.
func (g *Region) Snapshot() AdmissionSnapshot { return g.agg }
