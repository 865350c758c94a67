package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
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

// inProcess serves bodies to one endpoint in process, from a request
// made once: only the handler's own allocations are counted.
type inProcess struct {
	h    http.Handler
	w    *nullWriter
	body *bytes.Reader
	req  *http.Request
}

func newInProcess(t *testing.T, s *Server, path string) *inProcess {
	b := &inProcess{h: s.Handler(), w: &nullWriter{hdr: http.Header{}}, body: bytes.NewReader(nil)}
	var err error
	if b.req, err = http.NewRequest(http.MethodPost, path, nil); err != nil {
		t.Fatal(err)
	}
	b.req.Body = io.NopCloser(b.body)
	return b
}

// mallocs serves body and returns the heap allocations it took.
func (b *inProcess) mallocs(t *testing.T, body []byte) uint64 {
	t.Helper()
	b.body.Reset(body)
	b.w.code = http.StatusOK
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.h.ServeHTTP(b.w, b.req)
	runtime.ReadMemStats(&after)
	if b.w.code != http.StatusOK {
		t.Fatalf("%s answered %d", b.req.URL.Path, b.w.code)
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
// allocates through Handler().ServeHTTP. Once the flow table has grown
// to the population, no op allocates — a join, admitted or refused,
// copies its name into the table's arena and takes a free row — so a
// batch costs only the request's fixed allocations, whatever its
// length.
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
		b := newInProcess(t, s, "/v1/batch")
		b.mallocs(t, bodies[0]) // warm-up: fills the tables and the pools
		b.mallocs(t, bodies[1])
		var total uint64
		per := make([]uint64, 0, rounds)
		for _, body := range bodies[2:] {
			n := b.mallocs(t, body)
			per = append(per, n)
			total += n
		}
		if n := s.NumFlows(); n != 8+24 {
			t.Fatalf("%d flows after the rounds, want 32: the batches did not run as planned", n)
		}
		// The request's fixed cost, spread over its 64 ops, must fit in
		// the budget; an allocation per join, or per refused join,
		// would not. The median batch allocates once, for the
		// http.MaxBytesReader, and the rounds 22 or 23 times in all.
		// In a few runs of a hundred one batch allocates ≈34 more, as
		// many as a request made afresh rather than taken from the
		// pool; the mean budget absorbs that.
		slices.Sort(per)
		if med := per[rounds/2]; med > 1 {
			t.Errorf("steady-state mixed batch: the median batch of 64 ops allocates %d times, want at most 1", med)
		}
		const perOp = 0.05
		if got := float64(total) / (rounds * 64); got > perOp {
			t.Errorf("steady-state mixed batch: %.3f allocations per op, want at most %.3f", got, perOp)
		}
	})

	t.Run("leave-only", func(t *testing.T) {
		s, err := New(allocTopo(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := newInProcess(t, s, "/v1/batch")
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

// TestSingleOpHandlersWithoutAllocating: in steady state a /v1/join
// (admitted or refused), /v1/leave or /v1/reroute request allocates no
// more than the http.MaxBytesReader that bounds its body.
func TestSingleOpHandlersWithoutAllocating(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolDropsItems() {
		t.Skip("sync.Pool drops items at random (the race detector's doing): allocation counts mean nothing")
	}
	s, err := New(allocTopo(), nil)
	if err != nil {
		t.Fatal(err)
	}
	small := packet.FlowSpec{TokenRate: units.MbitsPerSecond(0.01), BucketSize: 100}
	huge := packet.FlowSpec{TokenRate: units.MbitsPerSecond(0.01), BucketSize: units.MegaBytes(200)}
	join, leave, reroute := newInProcess(t, s, "/v1/join"), newInProcess(t, s, "/v1/leave"), newInProcess(t, s, "/v1/reroute")
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Each round joins a new flow, has a join refused, moves the flow
	// there and back, and leaves it.
	round := func(k int) (total uint64) {
		name := fmt.Sprintf("s%03d", k)
		total += join.mallocs(t, enc(JoinRequest{Flow: name, Links: []string{"l0", "l1"}, Spec: small}))
		total += join.mallocs(t, enc(JoinRequest{Flow: "x" + name, Links: []string{"l2"}, Spec: huge}))
		total += reroute.mallocs(t, enc(RerouteRequest{Flow: name, Links: []string{"l3", "l4", "l5"}}))
		total += reroute.mallocs(t, enc(RerouteRequest{Flow: name, Links: []string{"l0", "l1"}}))
		total += leave.mallocs(t, enc(LeaveRequest{Flow: name}))
		return total
	}
	// Warm-up: grows the table, its name arena and the compaction
	// target to the population, and fills the pools.
	const warm, rounds, perRound = 16, 20, 5
	for k := 0; k < warm; k++ {
		round(k)
	}
	// The median round: Mallocs counts the whole process, and a stray
	// allocation elsewhere must not fail the gate, where a per-request
	// one would show in every round.
	totals := make([]uint64, rounds)
	for k := range totals {
		totals[k] = round(warm + k)
	}
	slices.Sort(totals)
	var sink io.Reader
	bound := testing.AllocsPerRun(100, func() { sink = http.MaxBytesReader(join.w, join.req.Body, maxDecisionBody) })
	_ = sink
	if got := float64(totals[rounds/2]) / perRound; got > bound {
		t.Errorf("steady-state single-op request: %.2f allocations in the median round, want at most %v (http.MaxBytesReader's)", got, bound)
	}
	if n := s.NumFlows(); n != 0 {
		t.Fatalf("%d flows after the rounds, want 0: the requests did not run as planned", n)
	}
}

// TestFlowTableChurnStaysBounded: 10⁵ join/leave pairs of distinct
// names over a population of 100 leave the table's slab, index and name
// storage as large as they were after the first 10⁴: freed rows are
// reused and freed name bytes compacted away.
func TestFlowTableChurnStaysBounded(t *testing.T) {
	s, err := New(allocTopo(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const live, pairs = 100, 100_000
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(0.01), BucketSize: 100}
	name := func(i int) string { return fmt.Sprintf("churn-%07d", i) }
	type sizes struct{ chunks, index, names int }
	measure := func() sizes {
		tb := &s.flows
		return sizes{len(tb.chunks), len(tb.index), cap(tb.names) + cap(tb.spare)}
	}
	var early sizes
	for i := 0; i < pairs+live; i++ {
		if i < pairs {
			if d, err := s.Join(name(i), []string{"l0"}, spec); err != nil || !d.Admitted {
				t.Fatalf("join %d: %+v, %v", i, d, err)
			}
		}
		if i >= live {
			if err := s.Leave(name(i - live)); err != nil {
				t.Fatalf("leave %d: %v", i-live, err)
			}
		}
		if i == pairs/10 {
			early = measure()
		}
	}
	if n := s.NumFlows(); n != 0 {
		t.Fatalf("%d flows left", n)
	}
	got := measure()
	if got != early {
		t.Errorf("table grew with the ops: %+v after 10⁴ pairs, %+v after 10⁵", early, got)
	}
	// Bounded by the population: two chunks, an index at most 4× the
	// population, and names at most 8× the live bytes and the slab's
	// rows (the compaction threshold).
	liveBytes, rows := live*len(name(0)), got.chunks<<chunkBits
	if got.chunks > 2 || got.index > 4*live || got.names > 8*(liveBytes+rows) {
		t.Errorf("table of %d live flows holds %d chunks, %d index slots, %d name bytes", live, got.chunks, got.index, got.names)
	}
}
