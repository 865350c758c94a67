package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// bookTopo is six small links, FIFO and WFQ, so a stream of 1-3 hop
// joins fills them and refusals and refused reroutes are common.
func bookTopo() *topology.Topology {
	t := &topology.Topology{Name: "qosd-book"}
	for i := 0; i < 6; i++ {
		spec := "fifo+threshold"
		if i%3 == 2 {
			spec = "wfq+threshold"
		}
		t.Links = append(t.Links, topology.Link{
			Name: fmt.Sprintf("l%d", i), From: fmt.Sprint(i), To: fmt.Sprint(i + 1),
			Rate: units.MbitsPerSecond(12), Buffer: units.KiloBytes(400), Spec: spec,
		})
	}
	return t
}

// bookSpecs are the stream's contracts: few, so equal specs share
// links, with token rates in thirds of a kb/s, which float64 cannot
// hold exactly.
var bookSpecs = func() []packet.FlowSpec {
	specs := make([]packet.FlowSpec, 6)
	for i := range specs {
		rho := units.Rate(1000.0 / 3 * float64(1500*(i+1)+7*i))
		specs[i] = packet.FlowSpec{PeakRate: 3 * rho, TokenRate: rho, BucketSize: units.KiloBytes(float64(10 + 17*i))}
	}
	return specs
}()

// bookStream draws one batch of n ops over the flow names f0..f(names-1).
// It opens with up to three reroutes of live flows onto the route the
// table holds for them, and returns how many; the rest are joins (a
// name already joined is a duplicate), leaves (of live, already-left
// and never-joined names) and reroutes onto random routes.
func bookStream(rng *rand.Rand, s *Server, names, n int) (ops []BatchOp, same int) {
	s.mu.Lock()
	s.flows.each(func(name []byte, e *flowEntry) {
		if !e.pending && len(ops) < 3 && rng.Intn(4) == 0 {
			links := make([]string, len(e.route))
			for i, li := range e.route {
				links[i] = s.linkNames[li]
			}
			ops = append(ops, BatchOp{Op: "reroute", Flow: string(name), Links: links})
		}
	})
	s.mu.Unlock()
	same = len(ops)
	route := func() []string {
		var links []string
		for _, li := range rng.Perm(6)[:1+rng.Intn(3)] {
			links = append(links, fmt.Sprintf("l%d", li))
		}
		return links
	}
	for len(ops) < n {
		name := fmt.Sprintf("f%d", rng.Intn(names))
		switch k := rng.Intn(100); {
		case k < 45:
			spec := bookSpecs[rng.Intn(len(bookSpecs))]
			ops = append(ops, BatchOp{Op: "join", Flow: name, Links: route(), Spec: &spec})
		case k < 65:
			ops = append(ops, BatchOp{Op: "leave", Flow: name})
		case k < 70:
			ops = append(ops, BatchOp{Op: "leave", Flow: fmt.Sprintf("ghost%d", rng.Intn(names))})
		default:
			ops = append(ops, BatchOp{Op: "reroute", Flow: name, Links: route()})
		}
	}
	return ops, same
}

// serveJSON sends body (JSON-encoded when not nil) to the handler in
// process and decodes a 200 answer into out. It returns the status.
func serveJSON(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var rd bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0
		}
		rd.Reset(b)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, &rd))
	if w.Code == http.StatusOK && out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Errorf("%s %s: decode: %v", method, path, err)
		}
	}
	return w.Code
}

// streamKinds counts what a stream's answers exercised.
type streamKinds struct {
	mu sync.Mutex

	admitted, refused, duplicate, notJoined, rerouteRefused, sameRoute int
}

// add counts the answers to a batch whose first same ops are reroutes
// onto the flow's own route.
func (k *streamKinds) add(ops []BatchOp, same int, resp BatchResponse) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, r := range resp.Decisions {
		if i < same && r.Admitted {
			k.sameRoute++
		}
		switch {
		case strings.Contains(r.Error, "already joined"):
			k.duplicate++
		case strings.Contains(r.Error, "not joined"):
			k.notJoined++
		case r.Error != "":
		case r.Admitted:
			k.admitted++
		case ops[i].Op == "reroute":
			k.rerouteRefused++
		default:
			k.refused++
		}
	}
}

func (k *streamKinds) require(t *testing.T) {
	t.Helper()
	for _, c := range []struct {
		what string
		n    int
	}{
		{"admitted decisions", k.admitted}, {"refused joins", k.refused}, {"duplicate joins", k.duplicate},
		{"leaves or reroutes of flows not joined", k.notJoined}, {"refused reroutes", k.rerouteRefused},
		{"reroutes onto the same route", k.sameRoute},
	} {
		if c.n < 20 {
			t.Errorf("the stream made only %d %s, want at least 20", c.n, c.what)
		}
	}
}

// checkBook requires every link's aggregate to be the table's: the
// number of rows routed through the link and the sum of their buckets
// exactly, the sum of their token rates within 1e-9 relative (the book
// adds and subtracts them in the order the operations ran). No
// operation may be in flight.
func checkBook(t *testing.T, s *Server, when string) {
	t.Helper()
	n := make([]int, s.NumLinks())
	rho := make([]float64, s.NumLinks())
	sigma := make([]units.Bytes, s.NumLinks())
	s.mu.Lock()
	s.flows.each(func(name []byte, e *flowEntry) {
		if e.pending {
			t.Errorf("%s: flow %s is pending", when, name)
		}
		for _, li := range e.route {
			n[li]++
			rho[li] += e.spec.TokenRate.BitsPerSecond()
			sigma[li] += e.spec.BucketSize
		}
	})
	s.mu.Unlock()
	for i, sn := range s.adm.Snapshot() {
		got := sn.SumRho.BitsPerSecond()
		if sn.NumFlows != n[i] || sn.SumSigma != sigma[i] || math.Abs(got-rho[i]) > 1e-9*rho[i] {
			t.Fatalf("%s: link %s books (n=%d, Σρ=%v, Σσ=%d), its table rows sum to (n=%d, Σρ=%v, Σσ=%d)",
				when, s.linkNames[i], sn.NumFlows, got, sn.SumSigma, n[i], rho[i], sigma[i])
		}
	}
}

// TestBookMatchesTable runs a seeded stream of batches through
// /v1/batch — duplicate joins, leaves of unknown and already-left
// flows, refused reroutes and reroutes onto the same route among them —
// with a snapshot taken at batch 15 and restored at batch 20, and
// requires after every batch that each link's admission book holds
// exactly the flows the table routes through it.
func TestBookMatchesTable(t *testing.T) {
	s, err := New(bookTopo(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rng := rand.New(rand.NewSource(58))
	var kinds streamKinds
	var snap Snapshot
	for b := 0; b < 40; b++ {
		switch b {
		case 15:
			if code := serveJSON(t, h, "GET", "/v1/snapshot", nil, &snap); code != 200 {
				t.Fatalf("snapshot: %d", code)
			}
		case 20:
			var rr RestoreResponse
			if code := serveJSON(t, h, "POST", "/v1/restore", snap, &rr); code != 200 || rr.Restored != len(snap.Flows) {
				t.Fatalf("restore: code %d, %d of %d flows restored", code, rr.Restored, len(snap.Flows))
			}
			checkBook(t, s, "after the restore")
		}
		ops, same := bookStream(rng, s, 60, 64)
		var resp BatchResponse
		if code := serveJSON(t, h, "POST", "/v1/batch", BatchRequest{Ops: ops}, &resp); code != 200 || len(resp.Decisions) != len(ops) {
			t.Fatalf("batch %d: code %d, %d answers for %d ops", b, code, len(resp.Decisions), len(ops))
		}
		kinds.add(ops, same, resp)
		checkBook(t, s, fmt.Sprintf("after batch %d", b))
	}
	kinds.require(t)
}

// TestBookMatchesTableConcurrently runs the stream from four
// goroutines over shared flow names, so operations on one flow collide
// (409) and leaves race a snapshot restore (refused while an operation
// is in flight), and checks the books against the table whenever the
// goroutines have all finished a round. Under -race it is also the data
// race check of the pending-row protocol.
func TestBookMatchesTableConcurrently(t *testing.T) {
	const workers, rounds = 4, 12
	s, err := New(bookTopo(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var kinds streamKinds
	rngs := make([]*rand.Rand, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(100 + w)))
	}
	var snap Snapshot
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for b := 0; b < 4; b++ {
					ops, same := bookStream(rng, s, 40, 32)
					var resp BatchResponse
					if code := serveJSON(t, h, "POST", "/v1/batch", BatchRequest{Ops: ops}, &resp); code != 200 || len(resp.Decisions) != len(ops) {
						t.Errorf("batch: code %d, %d answers for %d ops", code, len(resp.Decisions), len(ops))
						return
					}
					kinds.add(ops, same, resp)
				}
			}(rngs[w])
		}
		if r > 0 {
			// A restore of the last round's snapshot, racing the
			// round's batches.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code := serveJSON(t, h, "POST", "/v1/restore", snap, nil); code != 200 && code != http.StatusConflict {
					t.Errorf("restore: code %d", code)
				}
			}()
		}
		wg.Wait()
		checkBook(t, s, fmt.Sprintf("after round %d", r))
		snap = s.SnapshotState()
	}
	kinds.require(t)
}
