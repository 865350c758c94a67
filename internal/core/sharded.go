package core

import (
	"fmt"
	"slices"
	"sync"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// LinkConfig declares one link of a ShardedAdmitter: the discipline's
// schedulability region plus the link's physical parameters.
type LinkConfig struct {
	Discipline Discipline
	Rate       units.Rate
	Buffer     units.Bytes
}

// admShard is one link's admission state: a mutex-guarded aggregate
// plus a multiset of the admitted specs, so Release can refuse specs
// that are not currently admitted (idempotency) in O(1).
type admShard struct {
	mu         sync.Mutex
	discipline Discipline
	rate       units.Rate
	buffer     units.Bytes
	nflows     int
	sumRho     float64 // bits/s
	sumSigma   units.Bytes
	admitted   map[packet.FlowSpec]int
}

func (s *admShard) checkLocked(spec packet.FlowSpec) RejectReason {
	return checkRegion(s.discipline, s.rate, s.buffer, s.sumRho, s.sumSigma, spec)
}

func (s *admShard) admitLocked(spec packet.FlowSpec) {
	s.admitted[spec]++
	s.nflows++
	s.sumRho += spec.TokenRate.BitsPerSecond()
	s.sumSigma += spec.BucketSize
}

func (s *admShard) releaseLocked(spec packet.FlowSpec) bool {
	n, ok := s.admitted[spec]
	if !ok {
		return false
	}
	if n == 1 {
		delete(s.admitted, spec)
	} else {
		s.admitted[spec] = n - 1
	}
	s.nflows--
	s.sumRho -= spec.TokenRate.BitsPerSecond()
	s.sumSigma -= spec.BucketSize
	if s.nflows == 0 {
		// Reset exactly: an empty link has a zero aggregate, whatever
		// floating-point residue the churn left behind.
		s.sumRho, s.sumSigma = 0, 0
	}
	return true
}

func (s *admShard) snapshotLocked() AdmissionSnapshot {
	return AdmissionSnapshot{
		Discipline: s.discipline,
		Rate:       s.rate,
		Buffer:     s.buffer,
		NumFlows:   s.nflows,
		SumRho:     units.Rate(s.sumRho),
		SumSigma:   s.sumSigma,
	}
}

// ShardedAdmitter is the concurrent admission controller behind qosd:
// one mutex-guarded shard per link, so joins on disjoint links never
// contend. Multi-link operations (AdmitRoute, ReleaseRoute, Reroute)
// lock the links they touch in canonical (ascending index) order, which
// makes any mix of concurrent requests deadlock-free, and hold all of
// them across the check-then-commit window, so a route admission is
// atomic — two racing joins can never both pass Check and jointly
// overshoot a link's region (no double-commit).
type ShardedAdmitter struct {
	shards []*admShard
}

// NewShardedAdmitter builds one shard per link.
func NewShardedAdmitter(links []LinkConfig) *ShardedAdmitter {
	if len(links) == 0 {
		panic("core: sharded admitter needs at least one link")
	}
	a := &ShardedAdmitter{shards: make([]*admShard, len(links))}
	for i, l := range links {
		if l.Rate <= 0 || l.Buffer <= 0 {
			panic(fmt.Sprintf("core: link %d: invalid rate %v or buffer %v", i, l.Rate, l.Buffer))
		}
		a.shards[i] = &admShard{
			discipline: l.Discipline,
			rate:       l.Rate,
			buffer:     l.Buffer,
			admitted:   make(map[packet.FlowSpec]int),
		}
	}
	return a
}

// NumLinks returns the number of link shards.
func (a *ShardedAdmitter) NumLinks() int { return len(a.shards) }

// Link returns the Admitter view of one link. The view is safe for
// concurrent use; single-link calls lock only that link's shard.
func (a *ShardedAdmitter) Link(i int) Admitter { return linkView{a.shards[i]} }

// Snapshot returns a consistent per-link snapshot of every shard.
// Cross-link consistency is per shard only: a concurrent multi-link
// admission may appear on some of its links and not yet on others.
func (a *ShardedAdmitter) Snapshot() []AdmissionSnapshot {
	out := make([]AdmissionSnapshot, len(a.shards))
	for i, s := range a.shards {
		s.mu.Lock()
		out[i] = s.snapshotLocked()
		s.mu.Unlock()
	}
	return out
}

// shortRoute is the longest route the admitter orders on the stack,
// without allocating; qosd routes are one to three links.
const shortRoute = 8

// lockOrder returns the distinct link indices of one or two routes in
// ascending order — the canonical acquisition order — in buf when they
// fit. slices.Sort insertion-sorts a slice this short.
func lockOrder(buf *[2 * shortRoute]int, route, extra []int) []int {
	order := buf[:0]
	if n := len(route) + len(extra); n > len(buf) {
		order = make([]int, 0, n)
	}
	order = append(append(order, route...), extra...)
	slices.Sort(order)
	// Deduplicate in place (a route may share links with the other).
	return slices.Compact(order)
}

func (a *ShardedAdmitter) lockAll(order []int) {
	for _, li := range order {
		a.shards[li].mu.Lock()
	}
}

func (a *ShardedAdmitter) unlockAll(order []int) {
	for _, li := range order {
		a.shards[li].mu.Unlock()
	}
}

// AdmitRoute atomically admits spec on every link of route, or on none.
// On rejection it returns the first refusing link in *route order* (the
// same semantics as the topology engine's per-hop admission gate) and
// the paper's reason taxonomy; on success it returns (-1, Accepted).
// Route entries must be distinct links.
func (a *ShardedAdmitter) AdmitRoute(route []int, spec packet.FlowSpec) (int, RejectReason) {
	var buf [2 * shortRoute]int
	order := lockOrder(&buf, route, nil)
	a.lockAll(order)
	defer a.unlockAll(order)
	for _, li := range route {
		if r := a.shards[li].checkLocked(spec); r != Accepted {
			return li, r
		}
	}
	for _, li := range route {
		a.shards[li].admitLocked(spec)
	}
	return -1, Accepted
}

// ReleaseRoute releases spec on every link of route, returning true
// when every link held it. Like Release, it is idempotent per link.
func (a *ShardedAdmitter) ReleaseRoute(route []int, spec packet.FlowSpec) bool {
	var buf [2 * shortRoute]int
	order := lockOrder(&buf, route, nil)
	a.lockAll(order)
	defer a.unlockAll(order)
	all := true
	for _, li := range route {
		if !a.shards[li].releaseLocked(spec) {
			all = false
		}
	}
	return all
}

// Reroute atomically moves spec from route old to route new: links on
// both routes keep their reservation untouched, links only on new must
// admit it, links only on old release it. On rejection nothing changes
// and the first refusing new link (in new-route order) is returned; on
// success it returns (-1, Accepted).
func (a *ShardedAdmitter) Reroute(old, new []int, spec packet.FlowSpec) (int, RejectReason) {
	var buf [2 * shortRoute]int
	order := lockOrder(&buf, old, new)
	a.lockAll(order)
	defer a.unlockAll(order)
	for _, li := range new {
		if slices.Contains(old, li) {
			continue
		}
		if r := a.shards[li].checkLocked(spec); r != Accepted {
			return li, r
		}
	}
	for _, li := range new {
		if !slices.Contains(old, li) {
			a.shards[li].admitLocked(spec)
		}
	}
	for _, li := range old {
		if !slices.Contains(new, li) {
			a.shards[li].releaseLocked(spec)
		}
	}
	return -1, Accepted
}

// linkView adapts one shard to the Admitter interface.
type linkView struct{ s *admShard }

var _ Admitter = linkView{}

// Check reports whether spec fits without admitting it.
func (v linkView) Check(spec packet.FlowSpec) RejectReason {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.checkLocked(spec)
}

// Admit adds spec to the admitted set when it fits.
func (v linkView) Admit(spec packet.FlowSpec) RejectReason {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	if r := v.s.checkLocked(spec); r != Accepted {
		return r
	}
	v.s.admitLocked(spec)
	return Accepted
}

// Release removes one admitted instance of spec, refusing (and leaving
// the aggregate untouched) when none is admitted.
func (v linkView) Release(spec packet.FlowSpec) bool {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.releaseLocked(spec)
}

// Snapshot returns the link's admitted aggregate.
func (v linkView) Snapshot() AdmissionSnapshot {
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	return v.s.snapshotLocked()
}
