package core

import (
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func TestAdmissionWFQRegion(t *testing.T) {
	// WFQ region (eqs. 5-6): R ≥ Σρ and B ≥ Σσ.
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	if got := a.Admit(spec(50, 20)); got != Accepted {
		t.Fatalf("first flow: %v", got)
	}
	// Second flow pushes Σσ to 120KB > 100KB: buffer limited.
	if got := a.Admit(spec(70, 20)); got != BufferLimited {
		t.Errorf("want buffer-limited, got %v", got)
	}
	// A small-burst flow pushing Σρ over R: bandwidth limited.
	if got := a.Admit(spec(10, 30)); got != BandwidthLimited {
		t.Errorf("want bandwidth-limited, got %v", got)
	}
	// Within both constraints: accepted.
	if got := a.Admit(spec(10, 4)); got != Accepted {
		t.Errorf("fitting flow rejected: %v", got)
	}
	if a.NumFlows() != 2 {
		t.Errorf("NumFlows = %d, want 2", a.NumFlows())
	}
}

func TestAdmissionWFQRegionAdmitsAFullBuffer(t *testing.T) {
	// Eq. 6 admits Σσ = B exactly: on 100 KB with 60 KB booked, a 40 KB
	// burst fits and one byte more does not.
	g := NewRegion(LinkConfig{Discipline: DisciplineWFQ, Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(100)})
	g.Add(spec(60, 2))
	if got := g.Check(spec(40, 2)); got != Accepted {
		t.Errorf("Σσ = B: got %v, want accepted", got)
	}
	over := spec(40, 2)
	over.BucketSize++
	if got := g.Check(over); got != BufferLimited {
		t.Errorf("Σσ = B + 1 byte: got %v, want buffer-limited", got)
	}
}

func TestAdmissionFIFORegionTighter(t *testing.T) {
	// The same flow set can be WFQ-schedulable but FIFO-buffer-limited
	// (the §2.3 point). Σσ = 300KB, u = 0.5 ⇒ FIFO needs B ≥ 600KB.
	flows := []packet.FlowSpec{spec(150, 12), spec(150, 12)}
	wfq := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(400))
	fifo := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(48), units.KiloBytes(400))
	for _, f := range flows[:1] {
		if wfq.Admit(f) != Accepted || fifo.Admit(f) != Accepted {
			t.Fatal("first flow rejected")
		}
	}
	if got := wfq.Admit(flows[1]); got != Accepted {
		t.Errorf("WFQ rejected second flow: %v", got)
	}
	if got := fifo.Admit(flows[1]); got != BufferLimited {
		t.Errorf("FIFO should be buffer-limited, got %v", got)
	}
}

func TestAdmissionFIFOMatchesRequiredBuffer(t *testing.T) {
	// The FIFO controller accepts the Table 1 set exactly when
	// B ≥ RequiredBufferFIFO.
	specs := table1Specs()
	need, err := RequiredBufferFIFO(specs, units.MbitsPerSecond(48))
	if err != nil {
		t.Fatal(err)
	}
	admitAll := func(b units.Bytes) bool {
		a := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(48), b)
		for _, s := range specs {
			if a.Admit(s) != Accepted {
				return false
			}
		}
		return true
	}
	if !admitAll(need + 16) {
		t.Errorf("flow set rejected with sufficient buffer %v", need+16)
	}
	if admitAll(need * 9 / 10) {
		t.Errorf("flow set accepted with insufficient buffer %v", need*9/10)
	}
}

func TestAdmissionRelease(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	s := spec(60, 20)
	a.Admit(s)
	if a.Admit(spec(60, 20)) != BufferLimited {
		t.Fatal("expected buffer-limited before release")
	}
	if !a.Release(s) {
		t.Fatal("release of admitted flow failed")
	}
	if a.Release(s) {
		t.Error("double release succeeded")
	}
	if a.Admit(spec(60, 20)) != Accepted {
		t.Error("slot not freed after release")
	}
}

func TestAdmissionCheckDoesNotAdmit(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	if a.Check(spec(10, 1)) != Accepted {
		t.Fatal("check failed")
	}
	if a.NumFlows() != 0 {
		t.Error("Check admitted the flow")
	}
}

func TestAdmissionUtilization(t *testing.T) {
	a := NewSerialAdmitter(DisciplineFIFO, units.MbitsPerSecond(48), units.MegaBytes(10))
	a.Admit(spec(10, 12))
	a.Admit(spec(10, 12))
	if u := a.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestAdmissionInvalidSpec(t *testing.T) {
	a := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	if a.Check(packet.FlowSpec{}) == Accepted {
		t.Error("invalid spec accepted")
	}
}

func TestRejectReasonStrings(t *testing.T) {
	for _, c := range []struct {
		r    RejectReason
		want string
	}{
		{Accepted, "accepted"},
		{BandwidthLimited, "bandwidth"},
		{BufferLimited, "buffer"},
		{RejectReason(99), "99"},
	} {
		if !strings.Contains(c.r.String(), c.want) {
			t.Errorf("String(%d) = %q", int(c.r), c.r.String())
		}
	}
	if DisciplineWFQ.String() != "WFQ" || !strings.Contains(DisciplineFIFO.String(), "FIFO") {
		t.Error("discipline strings wrong")
	}
}

func TestAdmissionConstructorValidation(t *testing.T) {
	for i, f := range []func(){
		func() { NewSerialAdmitter(DisciplineWFQ, 0, 100) },
		func() { NewSerialAdmitter(DisciplineWFQ, units.Mbps, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
