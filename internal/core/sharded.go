package core

import (
	"slices"
	"sync"

	"bufqos/internal/packet"
)

// admShard is one link's admission state: its Region behind the
// link's mutex. Route operations lock the shards themselves and book
// through the region directly; the locked Check and Admit make a shard
// the single-link view Link returns.
type admShard struct {
	mu     sync.Mutex
	region Region
}

// Check reports whether spec fits without admitting it.
func (s *admShard) Check(spec packet.FlowSpec) RejectReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.region.Check(spec)
}

// Admit books spec when it fits, returning the decision.
func (s *admShard) Admit(spec packet.FlowSpec) RejectReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.region.Check(spec)
	if r == Accepted {
		s.region.Add(spec)
	}
	return r
}

// ShardedAdmitter is the concurrent admission controller behind qosd:
// one mutex-guarded Region per link, so joins on disjoint links never
// contend. A shard keeps only the aggregate (n, Σρ, Σσ) eqs. 5–8 read;
// who holds what is the caller's record (qosd's flow table), which
// ReleaseRoute trusts. Multi-link operations (AdmitRoute, ReleaseRoute,
// Reroute) lock the links they touch in canonical (ascending index)
// order, which makes any mix of concurrent requests deadlock-free, and
// hold all of them across the check-then-commit window, so a route
// admission is atomic — two racing joins can never both pass Check and
// jointly overshoot a link's region (no double-commit).
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
		a.shards[i] = &admShard{region: NewRegion(l)}
	}
	return a
}

// NumLinks returns the number of link shards.
func (a *ShardedAdmitter) NumLinks() int { return len(a.shards) }

// Link returns the Admitter view of one link. The view is safe for
// concurrent use; its calls lock only that link's shard.
func (a *ShardedAdmitter) Link(i int) Admitter { return a.shards[i] }

// Snapshot returns a consistent per-link snapshot of every shard.
// Cross-link consistency is per shard only: a concurrent multi-link
// admission may appear on some of its links and not yet on others.
func (a *ShardedAdmitter) Snapshot() []AdmissionSnapshot {
	out := make([]AdmissionSnapshot, len(a.shards))
	for i, s := range a.shards {
		s.mu.Lock()
		out[i] = s.region.Snapshot()
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
		if r := a.shards[li].region.Check(spec); r != Accepted {
			return li, r
		}
	}
	for _, li := range route {
		a.shards[li].region.Add(spec)
	}
	return -1, Accepted
}

// ReleaseRoute releases spec on every link of route. Release only what
// you admitted, once: a region cannot refuse a stray release. qosd's
// flow table sees to it: join and reroute mark their row pending until
// they have booked, /v1/restore refuses while any row is pending, and a
// leave removes its row under the table's lock before it releases, so
// it or a Restore, never both, releases each reservation. A leave
// racing a Restore may release after the restored set is booked; its
// stale reservation is still on the links, so the books end equal to
// the table.
func (a *ShardedAdmitter) ReleaseRoute(route []int, spec packet.FlowSpec) {
	var buf [2 * shortRoute]int
	order := lockOrder(&buf, route, nil)
	a.lockAll(order)
	defer a.unlockAll(order)
	for _, li := range route {
		a.shards[li].region.Remove(spec)
	}
}

// Reroute atomically moves spec from route old to route new: links on
// both routes keep their reservation untouched, links only on new must
// admit it, links only on old release it. On rejection nothing changes
// and the first refusing new link (in new-route order) is returned; on
// success it returns (-1, Accepted). spec must be booked on old, as
// ReleaseRoute requires.
func (a *ShardedAdmitter) Reroute(old, new []int, spec packet.FlowSpec) (int, RejectReason) {
	var buf [2 * shortRoute]int
	order := lockOrder(&buf, old, new)
	a.lockAll(order)
	defer a.unlockAll(order)
	for _, li := range new {
		if slices.Contains(old, li) {
			continue
		}
		if r := a.shards[li].region.Check(spec); r != Accepted {
			return li, r
		}
	}
	for _, li := range new {
		if !slices.Contains(old, li) {
			a.shards[li].region.Add(spec)
		}
	}
	for _, li := range old {
		if !slices.Contains(new, li) {
			a.shards[li].region.Remove(spec)
		}
	}
	return -1, Accepted
}
