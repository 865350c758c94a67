package buffer

import (
	"fmt"

	"bufqos/internal/metrics"
	"bufqos/internal/units"
)

// Sharing implements the buffer-sharing scheme of §3.3. Per-flow
// reserved thresholds are computed exactly as in the fixed-partition
// case, but unused buffer space may be borrowed by active flows. Free
// space is split into two pools:
//
//   - headroom: reserved for flows that are below their threshold (and
//     hence entitled to more buffer room), capped at H;
//   - holes: the remaining free space, shareable by any flow.
//
// Admission follows the paper verbatim. A packet of a flow below its
// threshold first consumes holes, then headroom, and is dropped only if
// both are exhausted. A packet of a flow above its threshold is
// accepted only if it fits in the holes AND the flow's occupancy in
// excess of its reserved share stays below the remaining holes — "the
// amount of additional buffer space that a flow can grab cannot exceed
// the amount of holes that are left."
//
// On departure, freed space replenishes the headroom up to H first, and
// only the overflow returns to the holes (the paper's pseudocode):
//
//	headroom += packetlength;
//	holes    += MAX(headroom - H, 0);
//	headroom  = MIN(headroom, H);
//
// NewAdaptiveSharing restricts the above-threshold rule further for
// flows that do not adapt to loss.
type Sharing struct {
	accounting
	thresholds []units.Bytes
	maxHead    units.Bytes // H
	headroom   units.Bytes
	holes      units.Bytes
	// adaptive marks the flows that respond to loss (nil: every flow);
	// the others may grow their excess only up to frac of the holes.
	adaptive []bool
	frac     float64

	gHoles    *metrics.Gauge // nil unless instrumented
	gHeadroom *metrics.Gauge
}

// NewSharing returns a sharing manager with reserved per-flow
// thresholds and headroom cap H. Initially the whole buffer is free:
// the headroom pool is filled to min(B, H) and the rest are holes.
func NewSharing(capacity units.Bytes, thresholds []units.Bytes, h units.Bytes) *Sharing {
	if h < 0 {
		panic(fmt.Sprintf("buffer: negative headroom %v", h))
	}
	m := &Sharing{
		accounting: newAccounting(capacity, len(thresholds)),
		thresholds: append([]units.Bytes(nil), thresholds...),
		maxHead:    h,
	}
	for i, th := range thresholds {
		if th < 0 {
			panic(fmt.Sprintf("buffer: negative threshold %v for flow %d", th, i))
		}
	}
	m.headroom = min(capacity, h)
	m.holes = capacity - m.headroom
	return m
}

// NewAdaptiveSharing builds the bandwidth-sharing variant sketched in
// the paper's conclusion (§5): "allowing adaptive flows to share
// buffers with reserved flows, while non-adaptive ones would be
// prevented from doing so ... without entirely shutting off
// non-adaptive flows from accessing idle resources." Pools and
// departures work as in NewSharing. Above its threshold, a flow marked
// adaptive[i] (TCP-like, responding to loss) may grow its excess up to
// the remaining holes; any other flow only up to nonAdaptiveFraction ∈
// [0, 1] of them. A nil adaptive marks every flow adaptive. With
// fraction 1 the manager is plain Sharing; with 0 non-adaptive flows
// are locked out of idle buffer space.
func NewAdaptiveSharing(capacity units.Bytes, thresholds []units.Bytes, adaptive []bool,
	h units.Bytes, nonAdaptiveFraction float64) *Sharing {
	if adaptive != nil && len(adaptive) != len(thresholds) {
		panic(fmt.Sprintf("buffer: %d adaptive flags for %d thresholds", len(adaptive), len(thresholds)))
	}
	if nonAdaptiveFraction < 0 || nonAdaptiveFraction > 1 {
		panic(fmt.Sprintf("buffer: non-adaptive fraction %v outside [0,1]", nonAdaptiveFraction))
	}
	m := NewSharing(capacity, thresholds, h)
	m.adaptive = append([]bool(nil), adaptive...)
	m.frac = nonAdaptiveFraction
	return m
}

// Instrument implements Instrumentable, adding the §3.3 pool gauges
// (holes and headroom levels) on top of the accounting metrics.
func (m *Sharing) Instrument(r *metrics.Registry, prefix string) {
	m.accounting.Instrument(r, prefix)
	if r == nil {
		return
	}
	m.gHoles = r.Gauge(prefix + ".holes_bytes")
	m.gHeadroom = r.Gauge(prefix + ".headroom_bytes")
	m.gHoles.Set(int64(m.holes))
	m.gHeadroom.Set(int64(m.headroom))
}

// syncPools refreshes the pool gauges; nil handles make it free when
// metrics are disabled.
func (m *Sharing) syncPools() {
	m.gHoles.Set(int64(m.holes))
	m.gHeadroom.Set(int64(m.headroom))
}

// Threshold returns flow's reserved share.
func (m *Sharing) Threshold(flow int) units.Bytes { return m.thresholds[flow] }

// Headroom returns the current headroom pool size.
func (m *Sharing) Headroom() units.Bytes { return m.headroom }

// Holes returns the current shareable free space.
func (m *Sharing) Holes() units.Bytes { return m.holes }

// MaxHeadroom returns the configured cap H.
func (m *Sharing) MaxHeadroom() units.Bytes { return m.maxHead }

// Admit implements Manager.
func (m *Sharing) Admit(flow int, size units.Bytes) bool {
	if m.occ[flow]+size <= m.thresholds[flow] {
		// Below threshold: entitled to space. Holes first, then the
		// reserved headroom.
		if m.holes+m.headroom < size {
			m.dropped(flow, size)
			return false
		}
		fromHoles := min(m.holes, size)
		m.holes -= fromHoles
		m.headroom -= size - fromHoles
		m.add(flow, size)
		m.syncPools()
		return true
	}
	// Above threshold: only holes, and the flow's excess occupancy must
	// not outgrow what is left (a non-adaptive flow: its fraction of it).
	limit := m.holes
	if m.adaptive != nil && !m.adaptive[flow] {
		limit = units.Bytes(float64(m.holes) * m.frac)
	}
	if size > m.holes || m.occ[flow]+size-m.thresholds[flow] > limit {
		m.dropped(flow, size)
		return false
	}
	m.holes -= size
	m.add(flow, size)
	m.syncPools()
	return true
}

// Release implements Manager, applying the paper's departure update.
func (m *Sharing) Release(flow int, size units.Bytes) {
	m.remove(flow, size)
	m.headroom += size
	if m.headroom > m.maxHead {
		m.holes += m.headroom - m.maxHead
		m.headroom = m.maxHead
	}
	m.syncPools()
}

// checkInvariant verifies holes + headroom + occupancy == capacity and
// pool non-negativity. Tests call it after every operation.
func (m *Sharing) checkInvariant() error {
	if m.holes < 0 || m.headroom < 0 {
		return fmt.Errorf("negative pool: holes=%v headroom=%v", m.holes, m.headroom)
	}
	if m.headroom > m.maxHead && m.maxHead <= m.capacity {
		return fmt.Errorf("headroom %v exceeds cap %v", m.headroom, m.maxHead)
	}
	if got := m.holes + m.headroom + m.total; got != m.capacity {
		return fmt.Errorf("space leak: holes=%v + headroom=%v + occupied=%v = %v != capacity %v",
			m.holes, m.headroom, m.total, got, m.capacity)
	}
	return nil
}

func min(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
