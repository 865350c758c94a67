package core

import (
	"math/rand"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// TestSerialAndShardedAgree drives a SerialAdmitter and a sharded link
// view through the same seeded join/leave churn on 200 links and
// requires identical decisions and snapshots after every operation.
// Token rates are whole thirds of a kb/s, which float64 cannot hold
// exactly, so Σρ drifts with every join and leave; after each operation
// the test probes the region's boundary, where a book that summed
// differently would answer differently: a token rate equal to the
// bandwidth allowance R − Σρ, and a bucket at the buffer allowance and
// one byte either side of it.
func TestSerialAndShardedAgree(t *testing.T) {
	const (
		links = 200
		ops   = 2000
		third = 1000.0 / 3 // bits/s
	)
	rng := rand.New(rand.NewSource(36))
	var probes, disagree, drifted int
	for l := 0; l < links; l++ {
		d := DisciplineFIFO
		if l%2 == 1 {
			d = DisciplineWFQ
		}
		rate := units.Rate(third * float64(30000+rng.Intn(3_000_000)))
		buffer := units.Bytes(100_000 + rng.Intn(10_000_000))
		serial := NewSerialAdmitter(d, rate, buffer)
		view := NewShardedAdmitter([]LinkConfig{{d, rate, buffer}}).Link(0)
		// A flow reserves about 1/30 of the link, so joins fill it and
		// leaves keep the population churning near the boundary.
		maxK := int(float64(rate)/third/15) + 1
		var admitted []packet.FlowSpec
		agree := func(what string, a, b any) {
			if a != b {
				disagree++
				if disagree <= 5 {
					t.Errorf("link %d: %s: serial %v, sharded %v", l, what, a, b)
				}
			}
		}
		for op := 0; op < ops; op++ {
			if len(admitted) == 0 || rng.Intn(100) < 55 {
				rho := units.Rate(third * float64(1+rng.Intn(maxK)))
				s := packet.FlowSpec{PeakRate: 2 * rho, TokenRate: rho, BucketSize: units.Bytes(1 + rng.Intn(int(buffer)/30))}
				r := serial.Admit(s)
				agree("admit", r, view.Admit(s))
				if r == Accepted {
					admitted = append(admitted, s)
				}
			} else {
				i := rng.Intn(len(admitted))
				s := admitted[i]
				admitted[i] = admitted[len(admitted)-1]
				admitted = admitted[:len(admitted)-1]
				agree("release", serial.Release(s), view.Release(s))
			}
			snap := serial.Snapshot()
			if got := view.Snapshot(); got != snap {
				drifted++
				if drifted <= 5 {
					t.Errorf("link %d op %d: serial books (n=%d, Σρ=%v bits/s, Σσ=%d), sharded (n=%d, Σρ=%v bits/s, Σσ=%d)",
						l, op, snap.NumFlows, float64(snap.SumRho), snap.SumSigma, got.NumFlows, float64(got.SumRho), got.SumSigma)
				}
			}

			rhoAllow := units.Rate(rate.BitsPerSecond() - snap.SumRho.BitsPerSecond())
			if rhoAllow > 0 {
				s := packet.FlowSpec{TokenRate: rhoAllow}
				probes++
				agree("bandwidth probe", serial.Check(s), view.Check(s))
			}
			rho := units.Rate(third * float64(1+rng.Intn(maxK)))
			total := rate.BitsPerSecond()
			sigmaAllow := buffer - snap.SumSigma
			if d == DisciplineFIFO {
				sigmaAllow = units.Bytes(float64(buffer)*(1-(snap.SumRho.BitsPerSecond()+rho.BitsPerSecond())/total)) - snap.SumSigma
			}
			for _, sigma := range []units.Bytes{sigmaAllow - 1, sigmaAllow, sigmaAllow + 1} {
				if sigma < 0 {
					continue
				}
				s := packet.FlowSpec{TokenRate: rho, BucketSize: sigma}
				probes++
				agree("buffer probe", serial.Check(s), view.Check(s))
			}
		}
	}
	if probes < 500_000 {
		t.Errorf("only %d boundary probes, want at least 5e5", probes)
	}
	if disagree > 0 || drifted > 0 {
		t.Errorf("%d decisions disagree (%d boundary probes, %d operations); %d snapshots differ",
			disagree, probes, links*ops, drifted)
	}
}
