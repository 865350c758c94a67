package buffer

import (
	"fmt"

	"bufqos/internal/units"
)

// DynamicThreshold implements the Choudhury–Hahne dynamic-threshold
// scheme (reference [1] of the paper), which §3.3 compares the sharing
// scheme against. Every flow shares a single occupancy threshold
//
//	T(t) = α · (B − Q(t))
//
// proportional to the unused buffer space, where Q(t) is the total
// occupancy. A packet is admitted iff it fits and its flow's occupancy
// is below T(t). The scheme deliberately wastes a fraction of the
// buffer (the control margin) in exchange for automatic adaptation to
// the number of active flows.
type DynamicThreshold struct {
	accounting
	alpha float64
}

// NewDynamicThreshold returns a dynamic-threshold manager with the
// given α > 0 (Choudhury–Hahne recommend α in [1/64, 64]; α = 1 is the
// common operating point).
func NewDynamicThreshold(capacity units.Bytes, nflows int, alpha float64) *DynamicThreshold {
	if alpha <= 0 {
		panic(fmt.Sprintf("buffer: non-positive alpha %v", alpha))
	}
	return &DynamicThreshold{accounting: newAccounting(capacity, nflows), alpha: alpha}
}

// CurrentThreshold returns T(t) = α·(B − Q(t)).
func (m *DynamicThreshold) CurrentThreshold() units.Bytes {
	return units.Bytes(m.alpha * float64(m.capacity-m.total))
}

// Admit implements Manager.
func (m *DynamicThreshold) Admit(flow int, size units.Bytes) bool {
	if m.total+size > m.capacity || m.occ[flow] >= m.CurrentThreshold() {
		m.dropped(flow, size)
		return false
	}
	m.add(flow, size)
	return true
}
