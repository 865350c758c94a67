package qosd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bufqos/internal/packet"
)

// JoinRequest asks admission for one flow over an explicit route. The
// spec uses the suffixed wire encoding ("2Mbit/s", "60KB") shared with
// the topology loader.
type JoinRequest struct {
	Flow  string          `json:"flow"`
	Links []string        `json:"links"`
	Spec  packet.FlowSpec `json:"spec"`
}

// BatchRequest carries several operations in one round trip: a
// join-only shorthand (Joins) and a mixed stream (Ops), executed in
// that order. Every entry is decided independently and in sequence —
// a rejection or per-entry error does not stop the rest — and each
// join stays atomic across its route.
type BatchRequest struct {
	Joins []JoinRequest `json:"joins,omitempty"`
	Ops   []BatchOp     `json:"ops,omitempty"`
}

// BatchOp is one entry of a mixed batch: a join (default), leave, or
// reroute. Leave ignores Links and Spec; reroute ignores Spec.
type BatchOp struct {
	Op    string           `json:"op,omitempty"` // "join" (default), "leave", "reroute"
	Flow  string           `json:"flow"`
	Links []string         `json:"links,omitempty"`
	Spec  *packet.FlowSpec `json:"spec,omitempty"`
}

// BatchResult is one batch entry's outcome: a Decision when the join
// was decided, or Error when the request itself was malformed
// (unknown link, duplicate flow name, invalid spec).
type BatchResult struct {
	Decision
	Error string `json:"error,omitempty"`
}

// BatchResponse carries one result per batch entry, in request order.
type BatchResponse struct {
	Decisions []BatchResult `json:"decisions"`
}

// LeaveRequest releases a flow's reservations.
type LeaveRequest struct {
	Flow string `json:"flow"`
}

// RerouteRequest atomically moves a flow to a new route.
type RerouteRequest struct {
	Flow  string   `json:"flow"`
	Links []string `json:"links"`
}

// RestoreResponse reports a restore: how many flows re-admitted, and
// the decisions for those the topology refused.
type RestoreResponse struct {
	Restored int        `json:"restored"`
	Rejected []Decision `json:"rejected,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status   string `json:"status"`
	Topology string `json:"topology"`
	Links    int    `json:"links"`
	Flows    int    `json:"flows"`
}

type apiError struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/join      admit one flow (atomic across its route)
//	POST /v1/batch     run many joins/leaves/reroutes in one round trip
//	POST /v1/leave     release a flow
//	POST /v1/reroute   move a flow to a new route atomically
//	GET  /v1/links     per-link aggregates behind eqs. (5)-(8)
//	GET  /v1/snapshot  full flow table + link aggregates
//	POST /v1/restore   replace state from a snapshot
//	GET  /healthz      liveness + population summary
//	GET  /metricz      metrics registry snapshot
//
// Decisions are 200 whether admitted or rejected — a rejection is the
// control plane working, not an error. 4xx is reserved for malformed
// requests (400), unknown flows (404), conflicts (409) and decision
// bodies over maxDecisionBody (413). A decision body is one JSON value:
// anything after it but white space is malformed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/leave", s.handleLeave)
	mux.HandleFunc("POST /v1/reroute", s.handleReroute)
	mux.HandleFunc("GET /v1/links", s.handleLinks)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricz", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.httpRequests.Inc()
		mux.ServeHTTP(w, r)
	})
}

// decode parses a strict JSON request body (unknown fields rejected);
// /v1/restore reads its snapshot with it. The decision endpoints read
// theirs with readRequest.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeJSON emits compact JSON: decisions are the hot path and the
// indentation bytes are pure overhead there.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeErr maps service errors to status codes: ConflictError → 409,
// NotFoundError → 404, a body over maxDecisionBody → 413, anything
// else → 400.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	s.met.httpErrors.Inc()
	code := http.StatusBadRequest
	var conflict *ConflictError
	var notFound *NotFoundError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &conflict):
		code = http.StatusConflict
	case errors.As(err, &notFound):
		code = http.StatusNotFound
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	}
	s.writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.readRequest(w, r, joinBody)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer req.release()
	o := &req.ops[0]
	route, rerr := req.resolve(s, o)
	d, err := s.join(string(o.flow), o.spec, route, rerr)
	s.met.latencyJoin.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.readRequest(w, r, batchBody)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer req.release()
	joins, ops := req.opsOf(req.joins), req.opsOf(req.batch)
	for i := range joins {
		req.results = append(req.results, s.runOp(req, &joins[i], true))
	}
	for i := range ops {
		req.results = append(req.results, s.runOp(req, &ops[i], false))
	}
	s.met.latencyBatch.Observe(time.Since(start).Seconds())
	s.writeJSON(w, http.StatusOK, BatchResponse{Decisions: req.results})
}

// runOp decides one batch entry — a "joins" entry when join is set —
// and returns its answer. An entry's error does not stop the batch.
func (s *Server) runOp(req *request, o *wireOp, join bool) BatchResult {
	var (
		name string
		d    Decision
		err  error
	)
	switch {
	case join || string(o.op) == "" || string(o.op) == "join":
		name = string(o.flow)
		route, rerr := req.resolve(s, o)
		d, err = s.join(name, o.spec, route, rerr)
	case string(o.op) == "leave":
		name, err = s.leave(o.flow)
		d = Decision{Flow: name, Admitted: true}
	case string(o.op) == "reroute":
		route, rerr := req.resolve(s, o)
		d, err = s.reroute(o.flow, route, rerr)
	default:
		err = fmt.Errorf("unknown op %q", string(o.op))
	}
	if err != nil {
		if name == "" {
			name = string(o.flow)
		}
		return BatchResult{Decision: Decision{Flow: name}, Error: err.Error()}
	}
	return BatchResult{Decision: d}
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.readRequest(w, r, leaveBody)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer req.release()
	name, err := s.leave(req.ops[0].flow)
	s.met.latencyLeave.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, Decision{Flow: name, Admitted: true})
}

func (s *Server) handleReroute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.readRequest(w, r, rerouteBody)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer req.release()
	o := &req.ops[0]
	route, rerr := req.resolve(s, o)
	d, err := s.reroute(o.flow, route, rerr)
	s.met.latencyReroute.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.linkStates())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.SnapshotState())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap Snapshot
	if err := decode(r, &snap); err != nil {
		s.writeErr(w, err)
		return
	}
	rejected, err := s.Restore(snap)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, RestoreResponse{Restored: s.NumFlows(), Rejected: rejected})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, Health{
		Status:   "ok",
		Topology: s.topoName,
		Links:    s.NumLinks(),
		Flows:    s.NumFlows(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.met.reg == nil {
		w.Write([]byte("{}\n")) //nolint:errcheck
		return
	}
	s.met.reg.Snapshot().WriteJSON(w) //nolint:errcheck
}
