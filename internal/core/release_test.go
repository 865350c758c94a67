package core

import (
	"math"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// exactAggregate folds Σρ/Σσ over a spec set in admission order — the
// ground truth Release must preserve.
func exactAggregate(specs []packet.FlowSpec) (rho float64, sigma units.Bytes) {
	for _, s := range specs {
		rho += s.TokenRate.BitsPerSecond()
		sigma += s.BucketSize
	}
	return
}

// TestReleaseIdempotent is the regression test for the Release bugfix:
// double releases and releases of never-admitted specs must return
// false and leave the aggregate bit-for-bit unchanged, interleaved
// arbitrarily with admits. Only SerialAdmitter promises this: a
// ShardedAdmitter shard is a bare Region, and its ReleaseRoute requires
// an admitted spec.
func TestReleaseIdempotent(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		a := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(480), units.MegaBytes(100))
		var admitted []packet.FlowSpec
		check := func(step string) {
			t.Helper()
			rho, sigma := exactAggregate(admitted)
			snap := a.Snapshot()
			if snap.NumFlows != len(admitted) {
				t.Fatalf("%s: NumFlows = %d, want %d", step, snap.NumFlows, len(admitted))
			}
			if snap.SumSigma != sigma {
				t.Fatalf("%s: Σσ = %v, want %v", step, snap.SumSigma, sigma)
			}
			if got := snap.Utilization(); math.Abs(got-rho/480e6) > 1e-12 {
				t.Fatalf("%s: utilization = %v, want %v", step, got, rho/480e6)
			}
		}

		bogus := spec(33, 3.3) // never admitted
		for i := 0; i < 50; i++ {
			s := spec(10+float64(i), 0.7)
			if a.Admit(s) != Accepted {
				t.Fatalf("admit %d refused", i)
			}
			admitted = append(admitted, s)
			if a.Release(bogus) {
				t.Fatalf("release of never-admitted spec succeeded at %d", i)
			}
			check("after bogus release")
			if i%3 == 2 {
				victim := admitted[0]
				admitted = admitted[1:]
				if !a.Release(victim) {
					t.Fatalf("release of admitted spec failed at %d", i)
				}
				if a.Release(victim) {
					t.Fatalf("double release succeeded at %d", i)
				}
				check("after double release")
			}
		}
		// Drain completely: a fully released link must report an
		// exactly zero aggregate (no floating-point residue).
		for _, s := range admitted {
			if !a.Release(s) {
				t.Fatal("drain release failed")
			}
		}
		admitted = nil
		snap := a.Snapshot()
		if snap.NumFlows != 0 || snap.SumSigma != 0 || snap.Utilization() != 0 {
			t.Fatalf("drained link not exactly empty: %+v (u=%v)", snap, snap.Utilization())
		}
	})
}
