// Package qosd is the admission control plane as a long-running
// service: it loads a topology.Topology, builds one admission shard
// per link (core.ShardedAdmitter), and serves flow join / leave /
// reroute decisions over HTTP/JSON. Every decision goes through the
// paper's §2.3 schedulability regions — eqs. (5)-(6) for WFQ links,
// eqs. (7)-(8) for FIFO + buffer-management links — exactly as the
// offline engine does, but concurrently: requests touching disjoint
// links never contend, and multi-link joins commit atomically across
// all traversed links or not at all.
//
// The daemon's state is deliberately small: the per-link (Σσ, Σρ)
// aggregates live inside the sharded admitter, and a flat flow table
// maps flow names to their admitted route and contract. The whole
// table snapshots to JSON (wire-typed, suffixed units) and restores
// from it, so an operator can drain one daemon and replay its
// reservations into another.
package qosd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"bufqos/internal/core"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// LinkState describes one admission shard for /v1/links and snapshots:
// static provisioning plus the live aggregates behind eqs. (5)-(8).
type LinkState struct {
	Name        string      `json:"name"`
	Discipline  string      `json:"discipline"`
	Rate        units.Rate  `json:"rate"`
	Buffer      units.Bytes `json:"buffer"`
	Flows       int         `json:"flows"`
	SumRho      units.Rate  `json:"sum_rho"`
	SumSigma    units.Bytes `json:"sum_sigma"`
	Utilization float64     `json:"utilization"`
}

// FlowRecord is one admitted flow in a snapshot: its name, the links
// it reserved on (in route order), and its declared contract.
type FlowRecord struct {
	Flow  string          `json:"flow"`
	Links []string        `json:"links"`
	Spec  packet.FlowSpec `json:"spec"`
}

// Snapshot is the full transferable state of a daemon: restoring it
// into a fresh daemon over the same topology reproduces every
// reservation (and therefore every per-link aggregate).
type Snapshot struct {
	Topology string       `json:"topology"`
	Links    []LinkState  `json:"links"`
	Flows    []FlowRecord `json:"flows"`
}

// Decision is the outcome of a join or reroute: either admitted, or
// rejected with the first refusing link (in route order) and the
// region that refused it — the same RejectReason taxonomy the offline
// engine reports.
type Decision struct {
	Flow     string `json:"flow"`
	Admitted bool   `json:"admitted"`
	// Link and Reason are set on rejection: the first link in route
	// order that refused, and why ("bandwidth-limited" when eq. 5/7's
	// rate bound failed, "buffer-limited" when eq. 6/8's buffer bound
	// failed).
	Link   string `json:"link,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// flowEntry is one row of the flow table. A row is inserted in the
// pending state before the admitter runs so concurrent joins of the
// same name conflict on the table, not inside the shards; it becomes
// active (pending=false) only after the route committed.
type flowEntry struct {
	name    string // the table key
	spec    packet.FlowSpec
	route   []int
	hops    [inlineHops]int // route's storage when it fits
	pending bool
}

// inlineHops is the longest route a flowEntry stores without a second
// allocation.
const inlineHops = 4

// setRoute stores a copy of route.
func (e *flowEntry) setRoute(route []int) {
	if len(route) <= len(e.hops) {
		e.route = append(e.hops[:0], route...)
		return
	}
	e.route = append([]int(nil), route...)
}

// Server is the admission control plane for one topology. Its methods
// are safe for concurrent use; the HTTP layer in http.go is a thin
// JSON shim over them.
type Server struct {
	topoName  string
	linkNames []string
	byName    map[string]int
	adm       *core.ShardedAdmitter

	mu    sync.Mutex
	flows map[string]*flowEntry

	met serverMetrics
}

// New builds a Server over a topology's links. Declared flows and
// timeline events in t are ignored: the daemon starts empty and the
// flow population arrives through the API. reg may be nil (metrics
// handles are nil-safe); pass one to expose /metricz counters.
func New(t *topology.Topology, reg *metrics.Registry) (*Server, error) {
	if len(t.Links) == 0 {
		return nil, fmt.Errorf("qosd: topology %s has no links", t.Name)
	}
	s := &Server{
		topoName:  t.Name,
		linkNames: make([]string, len(t.Links)),
		byName:    make(map[string]int, len(t.Links)),
		flows:     make(map[string]*flowEntry),
	}
	cfgs := make([]core.LinkConfig, len(t.Links))
	for i := range t.Links {
		l := &t.Links[i]
		name := l.Name
		if name == "" {
			name = l.From + "->" + l.To
		}
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("qosd: duplicate link name %s", name)
		}
		if l.Rate <= 0 || l.Buffer <= 0 {
			return nil, fmt.Errorf("qosd: link %s: non-positive rate or buffer", name)
		}
		cfg, err := l.Admission()
		if err != nil {
			return nil, fmt.Errorf("qosd: link %s: %w", name, err)
		}
		s.linkNames[i] = name
		s.byName[name] = i
		cfgs[i] = cfg
	}
	s.adm = core.NewShardedAdmitter(cfgs)
	s.met.init(reg)
	return s, nil
}

// NumLinks reports the number of admission shards.
func (s *Server) NumLinks() int { return s.adm.NumLinks() }

// resolveRoute appends the admitter index of each named link to dst,
// rejecting an empty route, a link the topology does not have, and a
// repeated link — a route crosses a link at most once. Looking a []byte
// name up does not allocate.
func resolveRoute[N string | []byte](s *Server, dst []int, links []N) ([]int, error) {
	if len(links) == 0 {
		return nil, errEmptyRoute
	}
	for _, name := range links {
		li, ok := s.byName[string(name)]
		switch {
		case !ok:
			return nil, fmt.Errorf("unknown link %q", name)
		case slices.Contains(dst, li):
			return nil, fmt.Errorf("link %q repeated in route", name)
		}
		dst = append(dst, li)
	}
	return dst, nil
}

var errEmptyRoute = errors.New("empty route")

// Join admits one flow on every link of its route, atomically: either
// all links book the (σ, ρ) reservation or none do. On rejection the
// decision carries the first refusing link in route order.
func (s *Server) Join(name string, links []string, spec packet.FlowSpec) (Decision, error) {
	var buf [inlineHops]int
	route, err := resolveRoute(s, buf[:0], links)
	return s.join(name, spec, route, err)
}

// join decides a join over a route the caller resolved; routeErr, the
// resolution's error, is reported after the name and spec checks. The
// flow keeps a copy of route.
func (s *Server) join(name string, spec packet.FlowSpec, route []int, routeErr error) (Decision, error) {
	if name == "" {
		return Decision{}, fmt.Errorf("missing flow name")
	}
	if err := spec.Validate(); err != nil {
		return Decision{}, err
	}
	if routeErr != nil {
		return Decision{}, routeErr
	}

	s.mu.Lock()
	if _, exists := s.flows[name]; exists {
		s.mu.Unlock()
		return Decision{}, &ConflictError{fmt.Sprintf("flow %q already joined", name)}
	}
	entry := &flowEntry{name: name, spec: spec, pending: true}
	entry.setRoute(route)
	s.flows[name] = entry
	s.mu.Unlock()

	refusing, reason := s.adm.AdmitRoute(entry.route, spec)

	s.mu.Lock()
	if reason != core.Accepted {
		delete(s.flows, name)
		n := len(s.flows)
		s.mu.Unlock()
		s.met.decision(reason, n)
		return Decision{Flow: name, Link: s.linkNames[refusing], Reason: reason.String()}, nil
	}
	entry.pending = false
	n := len(s.flows)
	s.mu.Unlock()
	s.met.decision(core.Accepted, n)
	return Decision{Flow: name, Admitted: true}, nil
}

// Leave releases a flow's reservation on every link of its route.
func (s *Server) Leave(name string) error {
	_, err := s.leave([]byte(name))
	return err
}

// leave releases the named flow and returns its name as the table
// holds it, so the caller can answer without allocating one.
func (s *Server) leave(name []byte) (string, error) {
	s.mu.Lock()
	entry, ok := s.flows[string(name)]
	if !ok {
		s.mu.Unlock()
		return "", &NotFoundError{fmt.Sprintf("flow %q not joined", string(name))}
	}
	if entry.pending {
		s.mu.Unlock()
		return "", &ConflictError{fmt.Sprintf("flow %q has an operation in flight", entry.name)}
	}
	delete(s.flows, entry.name)
	n := len(s.flows)
	s.mu.Unlock()

	s.adm.ReleaseRoute(entry.route, entry.spec)
	s.met.released(n)
	return entry.name, nil
}

// Reroute atomically moves a flow to a new route: links on both routes
// keep their reservation untouched, vacated links release it, and new
// links admit it — or, if any new link refuses, nothing changes and
// the decision names the first refusing link.
func (s *Server) Reroute(name string, links []string) (Decision, error) {
	var buf [inlineHops]int
	route, err := resolveRoute(s, buf[:0], links)
	return s.reroute([]byte(name), route, err)
}

// reroute moves the named flow to a route the caller resolved; a
// resolution error, routeErr, comes before any lookup. The flow keeps
// a copy of newRoute.
func (s *Server) reroute(name []byte, newRoute []int, routeErr error) (Decision, error) {
	if routeErr != nil {
		return Decision{}, routeErr
	}

	s.mu.Lock()
	entry, ok := s.flows[string(name)]
	if !ok {
		s.mu.Unlock()
		return Decision{}, &NotFoundError{fmt.Sprintf("flow %q not joined", string(name))}
	}
	if entry.pending {
		s.mu.Unlock()
		return Decision{}, &ConflictError{fmt.Sprintf("flow %q has an operation in flight", entry.name)}
	}
	entry.pending = true
	oldRoute, spec := entry.route, entry.spec
	s.mu.Unlock()

	refusing, reason := s.adm.Reroute(oldRoute, newRoute, spec)

	s.mu.Lock()
	entry.pending = false
	if reason == core.Accepted {
		entry.setRoute(newRoute)
	}
	n := len(s.flows)
	s.mu.Unlock()

	s.met.rerouted(reason, n)
	if reason != core.Accepted {
		return Decision{Flow: entry.name, Link: s.linkNames[refusing], Reason: reason.String()}, nil
	}
	return Decision{Flow: entry.name, Admitted: true}, nil
}

// NumFlows reports the number of active (committed) flows.
func (s *Server) NumFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.flows {
		if !e.pending {
			n++
		}
	}
	return n
}

// linkStates renders every shard's live aggregates.
func (s *Server) linkStates() []LinkState {
	snaps := s.adm.Snapshot()
	out := make([]LinkState, len(snaps))
	for i, sn := range snaps {
		out[i] = LinkState{
			Name:        s.linkNames[i],
			Discipline:  sn.Discipline.String(),
			Rate:        sn.Rate,
			Buffer:      sn.Buffer,
			Flows:       sn.NumFlows,
			SumRho:      sn.SumRho,
			SumSigma:    sn.SumSigma,
			Utilization: sn.Utilization(),
		}
	}
	return out
}

// SnapshotState captures the daemon's full state: every committed
// flow (sorted by name, so equal states serialize identically) plus
// the per-link aggregates. Flows with an operation in flight are
// excluded — they have not committed.
func (s *Server) SnapshotState() Snapshot {
	s.mu.Lock()
	flows := make([]FlowRecord, 0, len(s.flows))
	for name, e := range s.flows {
		if e.pending {
			continue
		}
		links := make([]string, len(e.route))
		for i, li := range e.route {
			links[i] = s.linkNames[li]
		}
		flows = append(flows, FlowRecord{Flow: name, Links: links, Spec: e.spec})
	}
	s.mu.Unlock()
	sort.Slice(flows, func(i, j int) bool { return flows[i].Flow < flows[j].Flow })
	return Snapshot{Topology: s.topoName, Links: s.linkStates(), Flows: flows}
}

// Restore replaces the daemon's state with a snapshot: every current
// reservation is released, then the snapshot's flows are re-admitted
// in name order. Flows the topology can no longer accommodate are
// reported as rejections (the rest of the restore proceeds). Restore
// refuses to run while any operation is in flight.
func (s *Server) Restore(snap Snapshot) ([]Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, e := range s.flows {
		if e.pending {
			return nil, &ConflictError{fmt.Sprintf("flow %q has an operation in flight", name)}
		}
	}
	for name, e := range s.flows {
		s.adm.ReleaseRoute(e.route, e.spec)
		delete(s.flows, name)
	}

	recs := append([]FlowRecord(nil), snap.Flows...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Flow < recs[j].Flow })
	var rejected []Decision
	var buf [inlineHops]int
	for _, rec := range recs {
		if rec.Flow == "" {
			return nil, fmt.Errorf("snapshot flow with empty name")
		}
		if _, dup := s.flows[rec.Flow]; dup {
			return nil, fmt.Errorf("snapshot names flow %q twice", rec.Flow)
		}
		if err := rec.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("snapshot flow %q: %w", rec.Flow, err)
		}
		route, err := resolveRoute(s, buf[:0], rec.Links)
		if err != nil {
			return nil, fmt.Errorf("snapshot flow %q: %w", rec.Flow, err)
		}
		refusing, reason := s.adm.AdmitRoute(route, rec.Spec)
		if reason != core.Accepted {
			rejected = append(rejected, Decision{
				Flow:   rec.Flow,
				Link:   s.linkNames[refusing],
				Reason: reason.String(),
			})
			continue
		}
		entry := &flowEntry{name: rec.Flow, spec: rec.Spec}
		entry.setRoute(route)
		s.flows[rec.Flow] = entry
	}
	s.met.restored(len(s.flows))
	return rejected, nil
}

// ConflictError reports an operation colliding with existing state
// (duplicate join, concurrent operation on the same flow). The HTTP
// layer maps it to 409.
type ConflictError struct{ msg string }

func (e *ConflictError) Error() string { return e.msg }

// NotFoundError reports an operation on a flow the daemon does not
// know. The HTTP layer maps it to 404.
type NotFoundError struct{ msg string }

func (e *NotFoundError) Error() string { return e.msg }
