package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// allocTopo is eight roomy links, so thousands of small flows fit.
func allocTopo() *topology.Topology {
	t := &topology.Topology{Name: "qosd-alloc"}
	for i := 0; i < 8; i++ {
		t.Links = append(t.Links, topology.Link{
			Name: fmt.Sprintf("l%d", i), From: fmt.Sprint(i), To: fmt.Sprint(i + 1),
			Rate: units.MbitsPerSecond(1000), Buffer: units.MegaBytes(100), Spec: "fifo+threshold",
		})
	}
	return t
}

// nullWriter is a ResponseWriter that keeps nothing but a header map.
type nullWriter struct {
	hdr  http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// batchServer serves /v1/batch bodies in process, from a request made
// once: only the handler's own allocations are counted.
type batchServer struct {
	h    http.Handler
	w    *nullWriter
	body *bytes.Reader
	req  *http.Request
}

func newBatchServer(t *testing.T, s *Server) *batchServer {
	b := &batchServer{h: s.Handler(), w: &nullWriter{hdr: http.Header{}}, body: bytes.NewReader(nil)}
	var err error
	if b.req, err = http.NewRequest(http.MethodPost, "/v1/batch", nil); err != nil {
		t.Fatal(err)
	}
	b.req.Body = io.NopCloser(b.body)
	return b
}

// mallocs serves body and returns the heap allocations it took.
func (b *batchServer) mallocs(t *testing.T, body []byte) uint64 {
	t.Helper()
	b.body.Reset(body)
	b.w.code = http.StatusOK
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.h.ServeHTTP(b.w, b.req)
	runtime.ReadMemStats(&after)
	if b.w.code != http.StatusOK {
		t.Fatalf("batch answered %d", b.w.code)
	}
	return after.Mallocs - before.Mallocs
}

// poolDropsItems reports whether a sync.Pool loses what it is handed
// back, as it does at random under the race detector. It runs on one P,
// where a pool with the collector off keeps every item.
func poolDropsItems() bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p sync.Pool
	for i := 0; i < 100; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

func encodeOps(t *testing.T, ops []BatchOp) []byte {
	b, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchHandlerWithoutAllocating bounds what a steady-state batch
// allocates through Handler().ServeHTTP. A join keeps its name and its
// table entry; nothing else an op does may allocate, so a leave-only
// batch costs no more than the request's fixed allocations.
func TestBatchHandlerWithoutAllocating(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolDropsItems() {
		t.Skip("sync.Pool drops items at random (the race detector's doing): allocation counts mean nothing")
	}
	small := packet.FlowSpec{TokenRate: units.MbitsPerSecond(0.01), BucketSize: 100}
	huge := packet.FlowSpec{TokenRate: units.MbitsPerSecond(0.01), BucketSize: units.MegaBytes(200)}
	routes := [][]string{{"l0"}, {"l1", "l2"}, {"l3", "l4", "l5"}, {"l6", "l7"}}

	t.Run("mixed", func(t *testing.T) {
		s, err := New(allocTopo(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Eight long-lived flows reroute back and forth; each round joins
		// 24 flows, leaves the previous round's 24 and has 8 joins
		// refused, so the tables keep their size.
		for i := 0; i < 8; i++ {
			if _, err := s.Join(fmt.Sprintf("r%d", i), routes[0], small); err != nil {
				t.Fatal(err)
			}
		}
		round := func(k int) []byte {
			var ops []BatchOp
			for i := 0; i < 24; i++ {
				ops = append(ops, BatchOp{Op: "join", Flow: fmt.Sprintf("j%d-%d", k, i), Links: routes[i%4], Spec: &small})
				if k > 0 {
					ops = append(ops, BatchOp{Op: "leave", Flow: fmt.Sprintf("j%d-%d", k-1, i)})
				}
			}
			for i := 0; i < 8; i++ {
				ops = append(ops, BatchOp{Op: "join", Flow: fmt.Sprintf("x%d-%d", k, i), Links: routes[i%4], Spec: &huge})
				ops = append(ops, BatchOp{Op: "reroute", Flow: fmt.Sprintf("r%d", i), Links: routes[(k+1)%2]})
			}
			return encodeOps(t, ops)
		}
		const rounds = 20
		bodies := make([][]byte, rounds+2)
		for k := range bodies {
			bodies[k] = round(k)
		}
		b := newBatchServer(t, s)
		b.mallocs(t, bodies[0]) // warm-up: fills the tables and the pools
		b.mallocs(t, bodies[1])
		var total uint64
		for _, body := range bodies[2:] {
			total += b.mallocs(t, body)
		}
		// Each join allocates its name and its entry: 2 × 32 of every
		// 64 ops. Everything else — the request's fixed cost included —
		// must fit in the rest of the budget.
		if n := s.NumFlows(); n != 8+24 {
			t.Fatalf("%d flows after the rounds, want 32: the batches did not run as planned", n)
		}
		const perOp = 1.25
		if got := float64(total) / (rounds * 64); got > perOp {
			t.Errorf("steady-state mixed batch: %.2f allocations per op, want at most %.2f", got, perOp)
		}
	})

	t.Run("leave-only", func(t *testing.T) {
		s, err := New(allocTopo(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := newBatchServer(t, s)
		// leaves joins n flows outside the count and returns a body
		// leaving them all.
		leaves := func(k, n int) []byte {
			var ops []BatchOp
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("f%d-%d", k, i)
				if _, err := s.Join(name, routes[i%4], small); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, BatchOp{Op: "leave", Flow: name})
			}
			return encodeOps(t, ops)
		}
		b.mallocs(t, leaves(0, 64)) // warm-up
		one, many := ^uint64(0), ^uint64(0)
		for k := 1; k <= 5; k++ {
			one = min(one, b.mallocs(t, leaves(2*k, 1)))
			many = min(many, b.mallocs(t, leaves(2*k+1, 64)))
		}
		if many > one {
			t.Errorf("a 64-leave batch allocates %d times, a 1-leave batch %d: leaves allocate per op", many, one)
		}
	})
}
