package buffer

import (
	"testing"
	"testing/quick"

	"bufqos/internal/units"
)

func TestTailDropAdmitsUntilFull(t *testing.T) {
	m := NewTailDrop(1000, 2)
	if !m.Admit(0, 600) {
		t.Fatal("first packet rejected")
	}
	if !m.Admit(1, 400) {
		t.Fatal("fitting packet rejected")
	}
	if m.Admit(0, 1) {
		t.Fatal("overflow admitted")
	}
	if m.Total() != 1000 || m.Occupancy(0) != 600 || m.Occupancy(1) != 400 {
		t.Errorf("accounting wrong: total=%v occ0=%v occ1=%v", m.Total(), m.Occupancy(0), m.Occupancy(1))
	}
}

func TestTailDropNoIsolation(t *testing.T) {
	// The defining failure mode of tail-drop: one flow can take the
	// entire buffer.
	m := NewTailDrop(1000, 2)
	for m.Admit(1, 100) {
	}
	if m.Occupancy(1) != 1000 {
		t.Fatalf("greedy flow holds %v, expected all 1000", m.Occupancy(1))
	}
	if m.Admit(0, 100) {
		t.Fatal("victim flow admitted into a full buffer")
	}
}

func TestReleaseRestoresSpace(t *testing.T) {
	m := NewTailDrop(1000, 1)
	m.Admit(0, 1000)
	m.Release(0, 400)
	if !m.Admit(0, 400) {
		t.Fatal("freed space not reusable")
	}
	if m.Total() != 1000 {
		t.Errorf("total = %v, want 1000", m.Total())
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	m := NewTailDrop(1000, 1)
	m.Admit(0, 100)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	m.Release(0, 200)
}

func TestRejectedAdmitLeavesStateUnchanged(t *testing.T) {
	m := NewFixedThreshold(1000, []units.Bytes{300, 700})
	m.Admit(0, 300)
	before := m.Total()
	if m.Admit(0, 1) {
		t.Fatal("over-threshold packet admitted")
	}
	if m.Total() != before || m.Occupancy(0) != 300 {
		t.Error("failed admit mutated state")
	}
}

func TestFixedThresholdEnforcesPerFlowCap(t *testing.T) {
	m := NewFixedThreshold(1000, []units.Bytes{300, 700})
	for m.Admit(1, 100) {
	}
	if m.Occupancy(1) != 700 {
		t.Fatalf("flow 1 holds %v, threshold is 700", m.Occupancy(1))
	}
	// Flow 0 still gets its reserved 300 — this is the isolation the
	// paper's Proposition 1 builds on.
	for i := 0; i < 3; i++ {
		if !m.Admit(0, 100) {
			t.Fatalf("flow 0 packet %d rejected despite reserved share", i)
		}
	}
	if m.Admit(0, 100) {
		t.Fatal("flow 0 exceeded its own threshold")
	}
}

func TestFixedThresholdRespectsCapacity(t *testing.T) {
	// Thresholds may oversubscribe the buffer; capacity still binds.
	m := NewFixedThreshold(500, []units.Bytes{400, 400})
	m.Admit(0, 400)
	if m.Admit(1, 200) {
		t.Fatal("admitted beyond physical capacity")
	}
	if !m.Admit(1, 100) {
		t.Fatal("fitting packet rejected")
	}
}

func TestFixedThresholdAccessors(t *testing.T) {
	m := NewFixedThreshold(1000, []units.Bytes{300, 700})
	if m.Threshold(0) != 300 || m.Threshold(1) != 700 {
		t.Error("Threshold accessor wrong")
	}
	if m.Capacity() != 1000 || m.NumFlows() != 2 {
		t.Error("capacity/nflows wrong")
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewTailDrop(-1, 1) },
		func() { NewTailDrop(100, -1) },
		func() { NewFixedThreshold(100, []units.Bytes{-1}) },
		func() { NewDynamicThreshold(100, 1, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDynamicThresholdAdapts(t *testing.T) {
	m := NewDynamicThreshold(1000, 3, 1.0)
	// Empty buffer: T = B, any flow may start filling.
	if m.CurrentThreshold() != 1000 {
		t.Fatalf("T(empty) = %v, want 1000", m.CurrentThreshold())
	}
	// One greedy flow self-limits at T = α(B−Q) → Q = B/2 for α=1.
	for m.Admit(0, 50) {
	}
	q := m.Occupancy(0)
	if q < 450 || q > 550 {
		t.Errorf("single greedy flow stabilized at %v, want ≈ B/2 = 500", q)
	}
	// A newcomer still gets space: T = α(B−Q) > 0.
	if !m.Admit(1, 50) {
		t.Error("newcomer rejected despite free space")
	}
}

func TestDynamicThresholdSmallAlpha(t *testing.T) {
	m := NewDynamicThreshold(1000, 2, 0.25)
	for m.Admit(0, 10) {
	}
	// Fixed point: Q = αB/(1+α) = 200 for α=0.25.
	q := float64(m.Occupancy(0))
	if q < 180 || q > 220 {
		t.Errorf("greedy occupancy %v, want ≈ 200", q)
	}
}

func TestDynamicThresholdCapacityBinds(t *testing.T) {
	m := NewDynamicThreshold(100, 2, 64)
	for m.Admit(0, 10) {
	}
	if m.Total() > 100 {
		t.Errorf("total %v exceeds capacity", m.Total())
	}
}

// Property: for random admit/release sequences against any manager,
// occupancy accounting stays consistent: total == Σocc, 0 ≤ occ,
// total ≤ capacity.
func TestPropertyAccountingConsistent(t *testing.T) {
	mk := map[string]func() Manager{
		"taildrop": func() Manager { return NewTailDrop(10000, 4) },
		"fixed": func() Manager {
			return NewFixedThreshold(10000, []units.Bytes{1000, 2000, 3000, 4000})
		},
		"sharing": func() Manager {
			return NewSharing(10000, []units.Bytes{1000, 2000, 3000, 4000}, 2000)
		},
		"dynamic": func() Manager { return NewDynamicThreshold(10000, 4, 1) },
	}
	for name, newM := range mk {
		f := func(ops []uint16) bool {
			m := newM()
			type held struct {
				flow int
				size units.Bytes
			}
			var admitted []held
			for _, op := range ops {
				flow := int(op % 4)
				size := units.Bytes(op%700) + 1
				if op%3 == 0 && len(admitted) > 0 {
					// Release the oldest held packet.
					h := admitted[0]
					admitted = admitted[1:]
					m.Release(h.flow, h.size)
				} else if m.Admit(flow, size) {
					admitted = append(admitted, held{flow, size})
				}
				var sum units.Bytes
				for i := 0; i < 4; i++ {
					if m.Occupancy(i) < 0 {
						return false
					}
					sum += m.Occupancy(i)
				}
				if sum != m.Total() || m.Total() > m.Capacity() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// BenchmarkAdmitDynamicThreshold measures the Choudhury–Hahne
// baseline's per-packet admission, beside bench's
// buffer.*_admit_release_ns for the paper's schemes and RED.
func BenchmarkAdmitDynamicThreshold(b *testing.B) {
	m := NewDynamicThreshold(units.MegaBytes(1), 9, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Admit(i%9, 500) {
			m.Release(i%9, 500)
		}
	}
}
