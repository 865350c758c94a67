package core

import (
	"slices"
	"sync"

	"bufqos/internal/packet"
)

// admShard is one link's admission state: its SerialAdmitter — the
// region and the admitted multiset — behind the link's mutex. It is
// the Admitter view Link returns; route operations lock the shards
// themselves and use the book directly.
type admShard struct {
	mu   sync.Mutex
	book SerialAdmitter
}

var _ Admitter = (*admShard)(nil)

// Check reports whether spec fits without admitting it.
func (s *admShard) Check(spec packet.FlowSpec) RejectReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.book.Check(spec)
}

// Admit adds spec to the admitted set when it fits.
func (s *admShard) Admit(spec packet.FlowSpec) RejectReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.book.Admit(spec)
}

// Release removes one admitted instance of spec, refusing (and leaving
// the aggregate untouched) when none is admitted.
func (s *admShard) Release(spec packet.FlowSpec) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.book.Release(spec)
}

// Snapshot returns the link's admitted aggregate.
func (s *admShard) Snapshot() AdmissionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.book.Snapshot()
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
		a.shards[i] = &admShard{book: *NewSerialAdmitter(l.Discipline, l.Rate, l.Buffer)}
	}
	return a
}

// NumLinks returns the number of link shards.
func (a *ShardedAdmitter) NumLinks() int { return len(a.shards) }

// Link returns the Admitter view of one link. The view is safe for
// concurrent use; single-link calls lock only that link's shard.
func (a *ShardedAdmitter) Link(i int) Admitter { return a.shards[i] }

// Snapshot returns a consistent per-link snapshot of every shard.
// Cross-link consistency is per shard only: a concurrent multi-link
// admission may appear on some of its links and not yet on others.
func (a *ShardedAdmitter) Snapshot() []AdmissionSnapshot {
	out := make([]AdmissionSnapshot, len(a.shards))
	for i, s := range a.shards {
		out[i] = s.Snapshot()
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
		if r := a.shards[li].book.Check(spec); r != Accepted {
			return li, r
		}
	}
	for _, li := range route {
		a.shards[li].book.add(spec)
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
		if !a.shards[li].book.Release(spec) {
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
		if r := a.shards[li].book.Check(spec); r != Accepted {
			return li, r
		}
	}
	for _, li := range new {
		if !slices.Contains(old, li) {
			a.shards[li].book.add(spec)
		}
	}
	for _, li := range old {
		if !slices.Contains(new, li) {
			a.shards[li].book.Release(spec)
		}
	}
	return -1, Accepted
}
