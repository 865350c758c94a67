package qosd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bufqos/internal/core"
	"bufqos/internal/jsonscan"
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
// requests (400), unknown flows (404), conflicts (409) and bodies over
// maxDecisionBody, or maxRestoreBody for a snapshot (413). A decision
// body is one JSON value: anything after it but white space is
// malformed.
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

// jsonContentType is every answer's Content-Type, shared so that
// setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeBody sends body, a JSON answer, with status code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// writeJSON emits compact JSON for the endpoints off the decision path.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// errorStatus maps a service error to its status code: ConflictError →
// 409, NotFoundError → 404, a body over its bound → 413, anything else
// → 400.
func errorStatus(err error) int {
	var conflict *ConflictError
	var notFound *NotFoundError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &conflict):
		return http.StatusConflict
	case errors.As(err, &notFound):
		return http.StatusNotFound
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeErr answers err as an apiError with its status code.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	s.met.httpErrors.Inc()
	writeBody(w, errorStatus(err), append(appendError(nil, err.Error()), '\n'))
}

// The answer writer. Each function appends what json.Encoder.Encode
// writes for its value but the newline that ends it; strings go
// through jsonscan.AppendString.

// appendResult appends a BatchResult for flow with error errMsg, or
// without one a Decision: the two encode alike when Error is empty.
func appendResult(dst, flow []byte, admitted bool, link, reason, errMsg string) []byte {
	dst = jsonscan.AppendString(append(dst, `{"flow":`...), flow)
	dst = strconv.AppendBool(append(dst, `,"admitted":`...), admitted)
	if link != "" {
		dst = jsonscan.AppendString(append(dst, `,"link":`...), link)
	}
	if reason != "" {
		dst = jsonscan.AppendString(append(dst, `,"reason":`...), reason)
	}
	if errMsg != "" {
		dst = jsonscan.AppendString(append(dst, `,"error":`...), errMsg)
	}
	return append(dst, '}')
}

// openBatch, nextResult and closeBatch frame a BatchResponse: the
// results go one by one after openBatch, each after nextResult.
func openBatch(dst []byte) []byte  { return append(dst, `{"decisions":[`...) }
func closeBatch(dst []byte) []byte { return append(dst, "]}"...) }

// nextResult appends the comma before a result that is not the first.
func nextResult(dst []byte) []byte {
	if dst[len(dst)-1] != '[' {
		dst = append(dst, ',')
	}
	return dst
}

// appendOutcome appends the Decision o is for flow.
func (s *Server) appendOutcome(dst, flow []byte, o outcome) []byte {
	if o.reason != core.Accepted {
		return appendResult(dst, flow, false, s.linkNames[o.refusing], o.reason.String(), "")
	}
	return appendResult(dst, flow, true, "", "", "")
}

// appendError appends an apiError.
func appendError(dst []byte, msg string) []byte {
	return append(jsonscan.AppendString(append(dst, `{"error":`...), msg), '}')
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
	oc, err := s.join(o.flow, o.spec, route, rerr)
	s.met.latencyJoin.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	req.answer(w, s.appendOutcome(req.out[:0], o.flow, oc))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.readRequest(w, r, batchBody)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer req.release()
	out := openBatch(req.out[:0])
	joins, ops := req.opsOf(req.joins), req.opsOf(req.batch)
	for i := range joins {
		out = s.runOp(out, req, &joins[i], true)
	}
	for i := range ops {
		out = s.runOp(out, req, &ops[i], false)
	}
	s.met.latencyBatch.Observe(time.Since(start).Seconds())
	req.answer(w, closeBatch(out))
}

// runOp decides one batch entry — a "joins" entry when join is set —
// and appends its answer to the list in dst. An entry's error does not
// stop the batch.
func (s *Server) runOp(dst []byte, req *request, o *wireOp, join bool) []byte {
	dst = nextResult(dst)
	var (
		oc  outcome
		err error
	)
	switch {
	case join || string(o.op) == "" || string(o.op) == "join":
		route, rerr := req.resolve(s, o)
		oc, err = s.join(o.flow, o.spec, route, rerr)
	case string(o.op) == "leave":
		err = s.leave(o.flow, &req.route)
	case string(o.op) == "reroute":
		route, rerr := req.resolve(s, o)
		oc, err = s.reroute(o.flow, route, rerr)
	default:
		err = fmt.Errorf("unknown op %q", string(o.op))
	}
	if err != nil {
		return appendResult(dst, o.flow, false, "", "", err.Error())
	}
	return s.appendOutcome(dst, o.flow, oc)
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.readRequest(w, r, leaveBody)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer req.release()
	flow := req.ops[0].flow
	err = s.leave(flow, &req.route)
	s.met.latencyLeave.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	req.answer(w, appendResult(req.out[:0], flow, true, "", "", ""))
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
	oc, err := s.reroute(o.flow, route, rerr)
	s.met.latencyReroute.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	req.answer(w, s.appendOutcome(req.out[:0], o.flow, oc))
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.linkStates())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.SnapshotState())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	// The snapshot is read as strictly as a decision body (readRequest):
	// unknown fields and trailing data are refused.
	var snap Snapshot
	if err := jsonscan.Decode(http.MaxBytesReader(w, r.Body, maxRestoreBody), &snap); err != nil {
		s.writeErr(w, fmt.Errorf("bad request body: %w", err))
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
