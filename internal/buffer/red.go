package buffer

import (
	"fmt"
	"math/rand"

	"bufqos/internal/units"
)

// RED implements Random Early Detection (Floyd–Jacobson, reference [3]
// of the paper) as an additional O(1) baseline. RED keeps an
// exponentially weighted moving average of the queue length and drops
// arriving packets probabilistically once the average exceeds MinTh,
// with probability rising to MaxP at MaxTh and certainty beyond.
//
// RED has no per-flow state at all, so it cannot provide rate
// guarantees — including it shows what the threshold scheme buys over a
// purely aggregate early-drop policy.
type RED struct {
	accounting
	MinTh  units.Bytes
	MaxTh  units.Bytes
	MaxP   float64
	Weight float64 // EWMA weight w, typically 0.002

	rng   *rand.Rand
	avg   float64
	count int // packets since last drop, for uniform drop spacing
}

// NewRED returns a RED manager. The rng drives the drop decisions and
// must be non-nil.
func NewRED(capacity units.Bytes, nflows int, minTh, maxTh units.Bytes, maxP float64, rng *rand.Rand) *RED {
	switch {
	case rng == nil:
		panic("buffer: RED needs a random source")
	case minTh < 0 || maxTh <= minTh:
		panic(fmt.Sprintf("buffer: RED thresholds min=%v max=%v invalid", minTh, maxTh))
	case maxP <= 0 || maxP > 1:
		panic(fmt.Sprintf("buffer: RED maxP %v outside (0,1]", maxP))
	}
	return &RED{
		accounting: newAccounting(capacity, nflows),
		MinTh:      minTh, MaxTh: maxTh, MaxP: maxP,
		Weight: 0.002,
		rng:    rng,
	}
}

// AverageQueue returns the current EWMA of the queue length in bytes.
func (m *RED) AverageQueue() float64 { return m.avg }

// Admit implements Manager.
func (m *RED) Admit(flow int, size units.Bytes) bool {
	if m.total+size > m.capacity {
		m.count = 0
		m.dropped(flow, size)
		return false
	}
	m.avg = (1-m.Weight)*m.avg + m.Weight*float64(m.total)
	switch {
	case m.avg < float64(m.MinTh):
		m.count = 0
	case m.avg >= float64(m.MaxTh):
		m.count = 0
		m.dropped(flow, size)
		return false
	default:
		pb := m.MaxP * (m.avg - float64(m.MinTh)) / float64(m.MaxTh-m.MinTh)
		pa := pb / (1 - float64(m.count)*pb)
		if pa < 0 || pa >= 1 {
			pa = 1
		}
		m.count++
		if m.rng.Float64() < pa {
			m.count = 0
			m.dropped(flow, size)
			return false
		}
	}
	m.add(flow, size)
	return true
}
