package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bufqos/internal/packet"
)

// This file holds the reference the decision-body scanner is checked
// against: encoding/json with DisallowUnknownFields, decoding into the
// request types, and the handlers as they were written over it.

// decisionPaths maps the four decision endpoints to their bodies.
var decisionPaths = map[string]endpoint{
	"/v1/join":    joinBody,
	"/v1/batch":   batchBody,
	"/v1/leave":   leaveBody,
	"/v1/reroute": rerouteBody,
}

// refDecode is the reflection decoder: the first JSON value of body
// into v, unknown fields rejected. trailing reports whether anything
// but white space follows that value, which it ignores.
func refDecode(body []byte, v any) (trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false, fmt.Errorf("bad request body: %w", err)
	}
	rest := body[dec.InputOffset():]
	return len(bytes.TrimLeft(rest, " \t\r\n")) > 0, nil
}

// refOp is one decoded op in a form both decoders map to.
type refOp struct {
	Op    string
	Flow  string
	Links []string
	Spec  packet.FlowSpec
}

// refBody is a decoded decision body: /v1/batch fills both lists, the
// single-op endpoints one entry of Ops.
type refBody struct{ Joins, Ops []refOp }

func refJoin(j JoinRequest) refOp {
	return refOp{Flow: j.Flow, Links: slices.Clip(j.Links), Spec: j.Spec}
}

// refDecodeBody decodes body as the endpoint's request type.
func refDecodeBody(e endpoint, body []byte) (b refBody, trailing bool, err error) {
	switch e {
	case joinBody:
		var req JoinRequest
		trailing, err = refDecode(body, &req)
		b.Ops = []refOp{refJoin(req)}
	case leaveBody:
		var req LeaveRequest
		trailing, err = refDecode(body, &req)
		b.Ops = []refOp{{Flow: req.Flow}}
	case rerouteBody:
		var req RerouteRequest
		trailing, err = refDecode(body, &req)
		b.Ops = []refOp{{Flow: req.Flow, Links: req.Links}}
	case batchBody:
		var req BatchRequest
		trailing, err = refDecode(body, &req)
		for _, j := range req.Joins {
			b.Joins = append(b.Joins, refJoin(j))
		}
		for _, o := range req.Ops {
			op := refOp{Op: o.Op, Flow: o.Flow, Links: o.Links}
			if o.Spec != nil {
				op.Spec = *o.Spec
			}
			b.Ops = append(b.Ops, op)
		}
	}
	return b, trailing, err
}

// scanBody decodes body with the scanner and maps the result to a
// refBody.
func scanBody(e endpoint, body []byte) (refBody, error) {
	req := requests.Get().(*request)
	defer req.release()
	req.body.Reset()
	req.body.Write(body)
	if err := req.decode(e); err != nil {
		return refBody{}, err
	}
	conv := func(ops []wireOp) []refOp {
		var out []refOp
		for _, o := range ops {
			op := refOp{Op: string(o.op), Flow: string(o.flow), Spec: o.spec}
			for _, name := range req.links[o.links.at : o.links.at+o.links.n] {
				op.Links = append(op.Links, string(name))
			}
			out = append(out, op)
		}
		return out
	}
	if e != batchBody {
		return refBody{Ops: conv(req.ops[:1])}, nil
	}
	return refBody{Joins: conv(req.opsOf(req.joins)), Ops: conv(req.opsOf(req.batch))}, nil
}

// sameBody compares decoded bodies, an empty list equal to a nil one.
func sameBody(a, b refBody) bool {
	norm := func(ops []refOp) []refOp {
		out := make([]refOp, len(ops))
		for i, o := range ops {
			if len(o.Links) == 0 {
				o.Links = nil
			}
			out[i] = o
		}
		return out
	}
	return reflect.DeepEqual(norm(a.Joins), norm(b.Joins)) && reflect.DeepEqual(norm(a.Ops), norm(b.Ops))
}

// refWrite answers v the way the handlers did: encoding/json's
// Encoder, which ends the value with a newline.
func refWrite(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// refServe answers a decision request the way the handlers did over
// encoding/json: decode, then the exported methods, then the Encoder.
func refServe(s *Server, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	fail := func(err error) (int, []byte) {
		refWrite(w, errorStatus(err), apiError{Error: err.Error()})
		return w.Code, w.Body.Bytes()
	}
	switch path {
	case "/v1/join":
		var req JoinRequest
		if _, err := refDecode(body, &req); err != nil {
			return fail(err)
		}
		d, err := s.Join(req.Flow, req.Links, req.Spec)
		if err != nil {
			return fail(err)
		}
		refWrite(w, http.StatusOK, d)
	case "/v1/leave":
		var req LeaveRequest
		if _, err := refDecode(body, &req); err != nil {
			return fail(err)
		}
		if err := s.Leave(req.Flow); err != nil {
			return fail(err)
		}
		refWrite(w, http.StatusOK, Decision{Flow: req.Flow, Admitted: true})
	case "/v1/reroute":
		var req RerouteRequest
		if _, err := refDecode(body, &req); err != nil {
			return fail(err)
		}
		d, err := s.Reroute(req.Flow, req.Links)
		if err != nil {
			return fail(err)
		}
		refWrite(w, http.StatusOK, d)
	case "/v1/batch":
		var req BatchRequest
		if _, err := refDecode(body, &req); err != nil {
			return fail(err)
		}
		resp := BatchResponse{Decisions: make([]BatchResult, 0, len(req.Joins)+len(req.Ops))}
		record := func(flow string, d Decision, err error) {
			if err != nil {
				resp.Decisions = append(resp.Decisions, BatchResult{Decision: Decision{Flow: flow}, Error: err.Error()})
				return
			}
			resp.Decisions = append(resp.Decisions, BatchResult{Decision: d})
		}
		for _, j := range req.Joins {
			d, err := s.Join(j.Flow, j.Links, j.Spec)
			record(j.Flow, d, err)
		}
		for _, op := range req.Ops {
			switch op.Op {
			case "", "join":
				var spec packet.FlowSpec
				if op.Spec != nil {
					spec = *op.Spec
				}
				d, err := s.Join(op.Flow, op.Links, spec)
				record(op.Flow, d, err)
			case "leave":
				err := s.Leave(op.Flow)
				record(op.Flow, Decision{Flow: op.Flow, Admitted: err == nil}, err)
			case "reroute":
				d, err := s.Reroute(op.Flow, op.Links)
				record(op.Flow, d, err)
			default:
				record(op.Flow, Decision{}, fmt.Errorf("unknown op %q", op.Op))
			}
		}
		refWrite(w, http.StatusOK, resp)
	}
	return w.Code, w.Body.Bytes()
}

// serveBody answers a request through the daemon's handler.
func serveBody(s *Server, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// populated is a test server holding flows "a" (a->b) and "b"
// (b->c, c->d), so leaves and reroutes find something.
func populated(t testing.TB) *Server {
	s, err := New(testTopo(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []JoinRequest{
		{Flow: "a", Links: []string{"a->b"}, Spec: vidSpec()},
		{Flow: "b", Links: []string{"b->c", "c->d"}, Spec: vidSpec()},
	} {
		if d, err := s.Join(f.Flow, f.Links, f.Spec); err != nil || !d.Admitted {
			t.Fatalf("populate %s: %+v, %v", f.Flow, d, err)
		}
	}
	return s
}

// decisionSeeds are bodies for the differential checks: the shapes
// bench and qload send, and the corners of encoding/json's rules.
func decisionSeeds() [][2]string {
	spec := vidSpec()
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	route := []string{"a->b", "b->c"}
	return [][2]string{
		// What bench and qload send.
		{"/v1/join", enc(JoinRequest{Flow: "c0-1", Links: route, Spec: spec})},
		{"/v1/leave", enc(LeaveRequest{Flow: "a"})},
		{"/v1/reroute", enc(RerouteRequest{Flow: "b", Links: []string{"c->d"}})},
		{"/v1/batch", enc(BatchRequest{Ops: []BatchOp{
			{Op: "join", Flow: "c0-1", Links: route, Spec: &spec},
			{Op: "leave", Flow: "a"},
			{Op: "reroute", Flow: "b", Links: []string{"a->b", "c->d"}},
			{Op: "join", Flow: "c0-2", Links: []string{"c->d"}, Spec: &spec},
		}})},
		{"/v1/batch", enc(BatchRequest{Joins: []JoinRequest{{Flow: "j", Links: route, Spec: spec}}})},
		// Keys match case-insensitively, ſ standing for s and the Kelvin
		// sign for k; "ſlow" is no key.
		{"/v1/join", `{"FLOW":"x","Links":["a->b"],"SPEC":{"TOKEN":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", `{"ſlow":"x","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", `{"flow":"x","linkſ":["a->b"],"ſpec":{"to` + "K" + `en":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/leave", `{"flow":"a"}`},
		// Repeated keys: the last wins, null keeps a string, and a list
		// keeps what an earlier one left in its slice.
		{"/v1/join", `{"flow":"a","flow":null,"links":["c->d"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", `{"flow":"x","links":["a->b","b->c","c->d"],"links":["c->d",null],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", `{"flow":"x","links":["a->b","b->c"],"links":[],"links":[null],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", `{"flow":"x","links":["a->b","b->c","c->d"],"links":["a->b"],"links":[null,null,null],"spec":{"token":"1Mbit/s","bucket":"1KB"}}`},
		{"/v1/batch", `{"ops":[{"op":"leave","flow":"a"},{"op":"leave","flow":"b"}],"ops":[{"op":"join"}],"ops":[null,null]}`},
		{"/v1/batch", `{"ops":[{"op":"leave","flow":"a"},{"flow":"z","links":["c->d"]}],"ops":[{"flow":"b"},null,null]}`},
		{"/v1/batch", `{"ops":[{"op":"join","flow":"q","links":["a->b"],"spec":{"token":"1Mbit/s","bucket":"1KB"}}],"ops":[],"ops":[null]}`},
		{"/v1/join", `{"flow":"x","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"},"spec":null}`},
		{"/v1/batch", `{"ops":[{"flow":"x","links":["a->b"],"spec":null}]}`},
		// null bodies.
		{"/v1/batch", `null`},
		{"/v1/join", `null`},
		{"/v1/leave", ` null `},
		{"/v1/batch", `{"joins":null,"ops":null}`},
		// Numeric units, escapes, surrogates, invalid UTF-8.
		{"/v1/join", `{"flow":"n","links":["a->b"],"spec":{"token":2e6,"bucket":60000,"peak":-0}}`},
		{"/v1/join", `{"flow":"😀é\n","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", `{"flow":"\ud800x\udc00\ud800A","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/join", "{\"flow\":\"bad\xff\xc3(\xed\xa0\x80\",\"links\":[\"a->b\"],\"spec\":{\"token\":\"2Mbit/s\",\"bucket\":\"60KB\"}}"},
		{"/v1/join", `{"flow":"e","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		// Errors: per entry, and of the whole body.
		{"/v1/batch", `{"ops":[{"op":"hop","flow":"a"},{"flow":""},{"flow":"x","links":["a->b","a->b"],"spec":{"token":"1Mbit/s","bucket":"1KB"}},{"op":"reroute","flow":"ghost","links":["nowhere"]}]}`},
		{"/v1/join", `{"flow":"x","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"},"extra":1}`},
		{"/v1/join", `{"flow":1}`},
		{"/v1/join", `{"flow":"x","links":"a->b"}`},
		{"/v1/join", `{"flow":"x","links":[1]}`},
		{"/v1/join", `{"flow":"x","spec":"2Mbit/s"}`},
		{"/v1/leave", `{"flow":"a","links":[]}`},
		{"/v1/leave", `["a"]`},
		{"/v1/batch", `{"ops":{}}`},
		{"/v1/batch", `{"ops":[1]}`},
		{"/v1/reroute", `{"flow":"a","links":["a->b"],}`},
		{"/v1/join", `{"flow":"x"` + "\x00" + `}`},
		{"/v1/join", `{"flow":"tab	in"}`},
		{"/v1/join", `{"flow":"\q"}`},
		{"/v1/join", ""},
		{"/v1/join", " \n"},
		// Trailing data: a 400 now, ignored before.
		{"/v1/join", `{"flow":"a2","links":["c->d"],"spec":{"token":"1Mbit/s","bucket":"1KB"}}{"flow":"b2"}`},
		{"/v1/batch", `{"ops":[]} x`},
		{"/v1/leave", `null x`},
		{"/v1/leave", `{"flow":"a"}` + "\n\t "},
	}
}

// checkDecisionBody is the differential oracle for one body: the
// scanner must decode what the reference decodes, to the same value,
// and a fresh daemon must answer as the reference handlers answer — the
// one exception being data after the value, which must now be a 400.
func checkDecisionBody(t *testing.T, path string, body []byte) {
	e, ok := decisionPaths[path]
	if !ok {
		return
	}
	s := populated(t)
	want, trailing, refErr := refDecodeBody(e, body)
	got, err := scanBody(e, body)
	switch {
	case refErr != nil || trailing:
		if err == nil {
			t.Fatalf("%s %q: scanner accepted what must be refused (reference: %v, trailing %v)", path, body, refErr, trailing)
		}
	case err != nil:
		t.Fatalf("%s %q: scanner refused (%v) what the reference decodes to %+v", path, body, err, want)
	case !sameBody(got, want):
		t.Fatalf("%s %q: scanner decoded\n%+v\nreference\n%+v", path, body, got, want)
	}

	code, answer := serveBody(s, path, body)
	refCode, refAnswer := refServe(populated(t), path, body)
	switch {
	case trailing:
		if code != http.StatusBadRequest {
			t.Fatalf("%s %q: trailing data answered %d, want 400", path, body, code)
		}
	case refErr != nil:
		if code != refCode {
			t.Fatalf("%s %q: answered %d, reference %d", path, body, code, refCode)
		}
	case code != refCode || !bytes.Equal(answer, refAnswer):
		t.Fatalf("%s %q: answered %d %s, reference %d %s", path, body, code, answer, refCode, refAnswer)
	}
}

func TestDecisionBodiesMatchReference(t *testing.T) {
	for _, seed := range decisionSeeds() {
		checkDecisionBody(t, seed[0], []byte(seed[1]))
	}
}

// FuzzDecisionBodies checks the scanner against the reference on any
// body for each decision endpoint. Seeds are decisionSeeds and every
// truncation of them.
func FuzzDecisionBodies(f *testing.F) {
	for _, seed := range decisionSeeds() {
		for n := 0; n <= len(seed[1]); n++ {
			f.Add(seed[0], []byte(seed[1][:n]))
		}
	}
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		checkDecisionBody(t, path, body)
	})
}

// TestDecisionBodyRejectsTrailingData: a decision body is one JSON
// value. A second one after it used to be dropped without a word —
// here flow b of a concatenated join, and the join of a was admitted.
func TestDecisionBodyRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t)
	join := `{"flow":"a","links":["a->b"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`
	for _, c := range []struct{ path, body string }{
		{"/v1/join", join + `{"flow":"b","links":["b->c"],"spec":{"token":"2Mbit/s","bucket":"60KB"}}`},
		{"/v1/batch", `{"ops":[` + join + `]} {"ops":[]}`},
		{"/v1/leave", `{"flow":"a"},`},
		{"/v1/reroute", `{"flow":"a","links":["b->c"]}]`},
	} {
		resp, err := ts.Client().Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		decErr := json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decErr != nil || apiErr.Error == "" {
			t.Errorf("%s %s: status %d, error %q (%v), want 400 with an error", c.path, c.body, resp.StatusCode, apiErr.Error, decErr)
		}
	}
	if n := s.NumFlows(); n != 0 {
		t.Errorf("%d flows joined by refused bodies", n)
	}
}

// TestDecisionBodyTooLarge: a body over maxDecisionBody is refused with
// 413 and an apiError, on every decision endpoint.
func TestDecisionBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"ops":[` + strings.Repeat(" ", maxDecisionBody) + `]}`
	for path := range decisionPaths {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		decErr := json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || decErr != nil || apiErr.Error == "" {
			t.Errorf("%s: status %d, error %q (%v), want 413 with an error", path, resp.StatusCode, apiErr.Error, decErr)
		}
	}
	// At the limit exactly, the body is read and decoded.
	body = `{"ops":[` + strings.Repeat(" ", maxDecisionBody-len(`{"ops":[]}`)) + `]}`
	var out BatchResponse
	if code := post(t, ts, "/v1/batch", body, &out); code != http.StatusOK || out.Decisions == nil {
		t.Errorf("body of exactly maxDecisionBody: status %d, %+v", code, out)
	}
}

// post sends a raw body and decodes the reply into out.
func post(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s: decode reply: %v", path, err)
	}
	return resp.StatusCode
}
