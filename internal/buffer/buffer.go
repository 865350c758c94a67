// Package buffer is the admission layer: every packet-admission policy
// of the repository lives here and keeps its books in one shared
// accounting. The buffer managers studied in the paper:
//
//   - TailDrop: a shared buffer with no per-flow control, the paper's
//     "no buffer management" baseline (§3.1).
//   - FixedThreshold: the logical-partitioning scheme of §2 — flow i may
//     occupy at most its threshold σᵢ + ρᵢ·B/R.
//   - Sharing: the §3.3 extension that lets active flows borrow unused
//     buffer space ("holes") while a reserved "headroom" protects flows
//     that are within their thresholds. NewAdaptiveSharing builds the
//     §5 variant on the same manager: flows that do not adapt to loss
//     may borrow only a fraction of the holes.
//   - DynamicThreshold: the Choudhury–Hahne scheme [1] the paper
//     compares its sharing rule against.
//   - RED: Random Early Detection, one of the O(1) schemes cited in the
//     introduction, included as an additional baseline.
//   - Partitioned: the §4 hybrid architecture's per-queue managers.
//
// The combined queue/managers push packets that are already queued out
// of the buffer, which no manager/scheduler split can express, so each
// is also the link's scheduler (internal/sched's Scheduler and
// PushoutNotifier, satisfied structurally):
//
//   - PushoutFIFO: the protective pushout policy of reference [2].
//   - ClassGreedy and ClassSeg: the preemptive greedy and
//     class-segregation policies of the shared-buffer value model
//     (arXiv:1103.6049).
//   - MultiQueue: longest-queue-first and its semi-greedy refinement in
//     the multi-queue switch model (arXiv:1007.1535).
//
// Every policy accounts occupancy in bytes and decides from the flow's
// own occupancy plus global counters. An admission passes through the
// accounting's add, a rejection through dropped, and a departure or a
// pushed-out victim through remove, so every policy reports the same
// buffer.* metrics when instrumented.
package buffer

import (
	"fmt"
	"strconv"

	"bufqos/internal/metrics"
	"bufqos/internal/units"
)

// Manager is a packet-admission policy. Admit attempts to admit a
// packet of the given flow and size: on success it updates the
// occupancy accounting and returns true; on failure it leaves all state
// unchanged and returns false. Release must be called exactly once for
// every admitted packet when it departs.
type Manager interface {
	Admit(flow int, size units.Bytes) bool
	Release(flow int, size units.Bytes)
	// Occupancy returns the bytes flow currently holds in the buffer.
	Occupancy(flow int) units.Bytes
	// Total returns the occupied bytes across all flows.
	Total() units.Bytes
	// Capacity returns the total buffer size B.
	Capacity() units.Bytes
}

// Instrumentable is implemented by managers that can export metrics.
// Instrument must be called before the manager is used; a nil registry
// leaves the manager uninstrumented (the free fast path).
type Instrumentable interface {
	Instrument(r *metrics.Registry, prefix string)
}

// acctMetrics holds the metric handles of an instrumented manager.
// The pointer on accounting is nil when metrics are disabled, so the
// hot path pays a single branch.
type acctMetrics struct {
	accepts       *metrics.Counter
	drops         *metrics.Counter
	acceptedBytes *metrics.Counter
	droppedBytes  *metrics.Counter
	occupancy     *metrics.Gauge
	flowAccepts   []*metrics.Counter
	flowDrops     []*metrics.Counter
}

// accounting is the shared occupancy bookkeeping embedded by managers.
type accounting struct {
	capacity units.Bytes
	occ      []units.Bytes
	total    units.Bytes
	met      *acctMetrics
}

// Instrument implements Instrumentable: it registers accept/drop
// counters (aggregate and per flow) and a total-occupancy gauge under
// the given name prefix, e.g. "buffer".
func (a *accounting) Instrument(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	m := &acctMetrics{
		accepts:       r.Counter(prefix + ".accepts"),
		drops:         r.Counter(prefix + ".drops"),
		acceptedBytes: r.Counter(prefix + ".accepted_bytes"),
		droppedBytes:  r.Counter(prefix + ".dropped_bytes"),
		occupancy:     r.Gauge(prefix + ".occupancy_bytes"),
		flowAccepts:   make([]*metrics.Counter, len(a.occ)),
		flowDrops:     make([]*metrics.Counter, len(a.occ)),
	}
	for i := range a.occ {
		m.flowAccepts[i] = r.Counter(prefix + ".accepts.flow" + strconv.Itoa(i))
		m.flowDrops[i] = r.Counter(prefix + ".drops.flow" + strconv.Itoa(i))
	}
	a.met = m
}

// dropped records a rejected packet; every Admit failure path calls it.
func (a *accounting) dropped(flow int, size units.Bytes) {
	if m := a.met; m != nil {
		m.drops.Inc()
		m.droppedBytes.Add(int64(size))
		m.flowDrops[flow].Inc()
	}
}

func newAccounting(capacity units.Bytes, nflows int) accounting {
	if capacity < 0 {
		panic(fmt.Sprintf("buffer: negative capacity %v", capacity))
	}
	if nflows <= 0 {
		panic(fmt.Sprintf("buffer: need at least one flow, got %d", nflows))
	}
	return accounting{capacity: capacity, occ: make([]units.Bytes, nflows)}
}

func (a *accounting) add(flow int, size units.Bytes) {
	a.occ[flow] += size
	a.total += size
	if m := a.met; m != nil {
		m.accepts.Inc()
		m.acceptedBytes.Add(int64(size))
		m.flowAccepts[flow].Inc()
		m.occupancy.Set(int64(a.total))
	}
}

func (a *accounting) remove(flow int, size units.Bytes) {
	if a.occ[flow] < size {
		panic(fmt.Sprintf("buffer: flow %d releasing %v with only %v held", flow, size, a.occ[flow]))
	}
	a.occ[flow] -= size
	a.total -= size
	if m := a.met; m != nil {
		m.occupancy.Set(int64(a.total))
	}
}

// Release implements Manager for every policy whose departures only
// free space.
func (a *accounting) Release(flow int, size units.Bytes) { a.remove(flow, size) }

// Occupancy implements Manager.
func (a *accounting) Occupancy(flow int) units.Bytes { return a.occ[flow] }

// Total implements Manager.
func (a *accounting) Total() units.Bytes { return a.total }

// Capacity implements Manager.
func (a *accounting) Capacity() units.Bytes { return a.capacity }

// NumFlows returns the number of flows the manager tracks.
func (a *accounting) NumFlows() int { return len(a.occ) }

// TailDrop is a shared buffer with no per-flow management: a packet is
// admitted whenever it fits. This is the classic best-effort router
// behaviour the paper uses as its first benchmark.
type TailDrop struct {
	accounting
}

// NewTailDrop returns a tail-drop manager over a buffer of the given
// capacity.
func NewTailDrop(capacity units.Bytes, nflows int) *TailDrop {
	return &TailDrop{newAccounting(capacity, nflows)}
}

// Admit implements Manager.
func (t *TailDrop) Admit(flow int, size units.Bytes) bool {
	if t.total+size > t.capacity {
		t.dropped(flow, size)
		return false
	}
	t.add(flow, size)
	return true
}

// Unlimited admits everything; it exists for tests and for measuring
// offered load.
type Unlimited struct {
	accounting
}

// NewUnlimited returns a manager that never drops.
func NewUnlimited(nflows int) *Unlimited {
	u := &Unlimited{newAccounting(0, nflows)}
	u.capacity = units.Bytes(1) << 60
	return u
}

// Admit implements Manager.
func (u *Unlimited) Admit(flow int, size units.Bytes) bool {
	u.add(flow, size)
	return true
}

// FixedThreshold is the paper's §2 scheme: the buffer is logically
// partitioned by per-flow occupancy thresholds. A packet of flow i is
// admitted iff it fits in the buffer and would not raise the flow's
// occupancy beyond its threshold Bᵢ.
type FixedThreshold struct {
	accounting
	thresholds []units.Bytes
}

// NewFixedThreshold returns a threshold manager. thresholds[i] is the
// maximum occupancy allowed for flow i (computed by the core package
// from the flow's (σᵢ, ρᵢ) profile).
func NewFixedThreshold(capacity units.Bytes, thresholds []units.Bytes) *FixedThreshold {
	m := &FixedThreshold{
		accounting: newAccounting(capacity, len(thresholds)),
		thresholds: append([]units.Bytes(nil), thresholds...),
	}
	for i, th := range thresholds {
		if th < 0 {
			panic(fmt.Sprintf("buffer: negative threshold %v for flow %d", th, i))
		}
	}
	return m
}

// Threshold returns flow's occupancy threshold.
func (m *FixedThreshold) Threshold(flow int) units.Bytes { return m.thresholds[flow] }

// Admit implements Manager.
func (m *FixedThreshold) Admit(flow int, size units.Bytes) bool {
	if m.total+size > m.capacity || m.occ[flow]+size > m.thresholds[flow] {
		m.dropped(flow, size)
		return false
	}
	m.add(flow, size)
	return true
}
