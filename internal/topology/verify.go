package topology

import (
	"fmt"

	"bufqos/internal/report"
	"bufqos/internal/units"
)

// Verify checks the paper's composed guarantees against one finished
// run and returns one assertion per guarantee:
//
//   - zero conformant loss: an admitted shaped flow loses no conformant
//     packet at any Guaranteed link of its route (Props. 1–2 per hop;
//     admission kept every hop inside its schedulability region). Other
//     hops make no per-flow promise and are not asserted.
//   - conservation: the flow delivers at least what it offered minus a
//     burst-and-storage allowance — one bucket σ plus, per hop, the
//     buffer that may still hold its bytes and the bits in flight on
//     the wire.
//   - reserved throughput: a sustained conformant flow (greedy, or CBR
//     at ≥ ρ) on a GuaranteedRoute delivers its reserved rate ρ over its
//     active window, up to the same allowance.
//   - tcp goodput floor: an admitted TCP flow on a GuaranteedRoute
//     achieves TCPGoodputFraction·ρ of goodput over its active window.
//
// Flows whose route crosses a failed or rate-cut link are Degraded:
// the admission decision assumed the declared capacity, so their
// guarantees are void for the run and only a no-panic sanity assertion
// is emitted. Rejected flows assert that they carried no traffic.
func Verify(t *Topology, res *Result) []report.Assertion {
	var as []report.Assertion
	for fi := range t.Flows {
		f := &t.Flows[fi]
		fr := &res.Flows[fi]
		if !fr.Admitted {
			var err error
			if fr.Delivered.Packets != 0 || fr.Offered.Packets != 0 {
				err = fmt.Errorf("rejected flow carried traffic: offered %d, delivered %d packets",
					fr.Offered.Packets, fr.Delivered.Packets)
			}
			as = append(as, report.Assertion{
				Name:   "rejected-flow-idle",
				Detail: fmt.Sprintf("flow %s", f.Name),
				Err:    err,
			})
			continue
		}
		if fr.Degraded {
			as = append(as, report.Assertion{
				Name:   "degraded-flow-measured",
				Detail: fmt.Sprintf("flow %s (route crosses a failed or rate-cut link; guarantees void)", f.Name),
			})
			continue
		}
		if f.Source == SourceTCP {
			// The closed-loop contract: under per-flow buffer
			// management, an admitted TCP flow's goodput tracks its
			// reserved share of the bottleneck. Only guaranteed schemes
			// (fifo/wfq + threshold/sharing) are held to the floor —
			// taildrop and RED make no per-flow promise, which is
			// exactly the GFR comparison's point.
			if t.GuaranteedRoute(f) && !fr.Left {
				active := fr.LeaveAt - fr.JoinAt
				want := units.Bytes(TCPGoodputFraction*float64(units.BytesAtRate(f.Spec.TokenRate, active))) - t.Allowance(f)
				as = append(as, report.Assertion{
					Name: "tcp-goodput-floor",
					Detail: fmt.Sprintf("flow %s: goodput ≥ %.2g·ρ = %.2g·%v over %.3gs",
						f.Name, TCPGoodputFraction, TCPGoodputFraction, f.Spec.TokenRate, active),
					Err: report.Checkf(fr.Goodput.Bytes >= want,
						"goodput %v (%v), want ≥ %v", fr.Goodput.Bytes, fr.GoodputRate, want),
				})
			}
			continue // tcp flows are unshaped; no conformance contract
		}
		if !f.Shaped {
			continue // no conformance contract to verify
		}
		for _, li := range f.Route {
			if !t.Links[li].Guaranteed() || res.Links[li].Flows == nil {
				continue // no per-flow promise, or Options.SkipLinkFlows left loss unattributed
			}
			lf := &res.Links[li].Flows[fi]
			var err error
			if lf.ConformantDropped.Packets != 0 {
				err = fmt.Errorf("dropped %d conformant packets (%v)",
					lf.ConformantDropped.Packets, lf.ConformantDropped.Bytes)
			}
			as = append(as, report.Assertion{
				Name:   "zero-conformant-loss",
				Detail: fmt.Sprintf("flow %s at link %s", f.Name, res.Links[li].Name),
				Err:    err,
			})
		}
		allow := t.Allowance(f)
		as = append(as, report.Assertion{
			Name:   "conservation",
			Detail: fmt.Sprintf("flow %s: delivered ≥ offered − %v", f.Name, allow),
			Err: report.Checkf(fr.Delivered.Bytes >= fr.Offered.Bytes-allow,
				"delivered %v of %v offered (allowance %v)", fr.Delivered.Bytes, fr.Offered.Bytes, allow),
		})
		if f.Sustained() && !fr.Left && t.GuaranteedRoute(f) {
			active := fr.LeaveAt - fr.JoinAt
			want := units.BytesAtRate(f.Spec.TokenRate, active) - allow
			as = append(as, report.Assertion{
				Name:   "reserved-throughput",
				Detail: fmt.Sprintf("flow %s: ≥ ρ = %v over %.3gs", f.Name, f.Spec.TokenRate, active),
				Err: report.Checkf(fr.Delivered.Bytes >= want,
					"delivered %v (%v), want ≥ %v", fr.Delivered.Bytes, fr.Throughput, want),
			})
		}
	}
	return as
}

// VerifyMany verifies every run, prefixing details with the run's seed
// when there is more than one.
func VerifyMany(t *Topology, results []Result) []report.Assertion {
	if len(results) == 1 {
		return Verify(t, &results[0])
	}
	var as []report.Assertion
	for i := range results {
		for _, a := range Verify(t, &results[i]) {
			a.Detail = fmt.Sprintf("seed %d: %s", results[i].Seed, a.Detail)
			as = append(as, a)
		}
	}
	return as
}

// Allowance bounds how many of a conformant flow's offered bytes may
// legitimately be missing from delivery at the horizon: the bucket σ,
// plus per hop the buffer that may still store its packets and the
// bytes in flight on the propagation wire, plus one packet per hop in
// transmission. The bound is independent of how the run was executed:
// a sharded run exchanges in-flight packets at window barriers without
// perturbing their timestamps (the hand-off reproduces the exact
// arrival instant fl(departure + propagation) an unsharded After would
// have used), so "in flight on the wire" means the same set of bytes —
// and the same allowance — at every Options.Shards value.
func (t *Topology) Allowance(f *Flow) units.Bytes {
	a := f.Spec.BucketSize
	for _, li := range f.Route {
		l := &t.Links[li]
		a += l.Buffer + units.BytesAtRate(l.Rate, l.PropDelay) + f.PacketSize
	}
	return a
}

// TCPGoodputFraction is the fraction of its reserved rate ρ an
// admitted TCP flow must achieve as goodput on an all-guaranteed route
// (the tcp-goodput-floor assertion). The paper-faithful expectation is
// the full proportional share R·ρᵢ/Σρⱼ ≥ ρᵢ; the asserted floor is
// deliberately conservative at ρ/2 to absorb slow-start ramp-up and
// ACK-clocking transients on short horizons.
const TCPGoodputFraction = 0.5

// Guaranteed reports whether the link (of a validated topology) runs a
// scheme the paper's per-flow protection claim covers: a FIFO or WFQ
// scheduler over the §3.2 threshold partition or its §3.3 sharing
// variant, whose reserved thresholds are identical. An under-scaled
// threshold manager (threshold?scale<1) still claims the guarantee —
// that is precisely the defect the fuzz oracles exist to catch.
func (l *Link) Guaranteed() bool {
	switch l.scheme.SchedulerName() {
	case "fifo", "wfq":
	default:
		return false
	}
	switch l.scheme.ManagerName() {
	case "threshold", "sharing":
		return true
	}
	return false
}

// GuaranteedRoute reports whether every hop of the flow's forward
// route is a Guaranteed link.
func (t *Topology) GuaranteedRoute(f *Flow) bool {
	for _, li := range f.Route {
		if !t.Links[li].Guaranteed() {
			return false
		}
	}
	return true
}

// Sustained reports whether the flow's source keeps its leaky bucket
// busy for the whole run, making delivered-rate ≥ ρ a sound check.
func (f *Flow) Sustained() bool {
	switch f.Source {
	case SourceGreedy:
		return true
	case SourceCBR:
		return f.AvgRate >= f.Spec.TokenRate
	default:
		return false
	}
}
