package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"

	"bufqos/internal/qosd"
	"bufqos/internal/topology"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileAtMostNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n     int
		want  float64
		q, at float64
	}{
		{1000, 0.99, 0.99, 990},     // exactly ten samples above the 990th
		{999, 0.99, 0.9, 900},       // nine above p99: fall back to p90
		{10000, 0.999, 0.999, 9990}, // p999 needs 10^4 samples
		{5000, 0.999, 0.99, 4950},   // 5000 samples cannot carry p999
		{1000, 0.5, 0.5, 500},       // want caps the ladder
		{19, 0.99, 0.5, 10},         // too few even for the median's margin: median
		{4, 0.99, 0.5, 2.5},         // a handful of timed calls
		{20, 0.99, 0.5, 10},         // ten beyond the 10th of twenty
		{100, 0.99, 0.9, 90},        // p90 of a hundred has ten beyond
	}
	for _, c := range cases {
		q, v := quantileAtMost(ramp(c.n), c.want)
		if q != c.q || !near(v, c.at) {
			t.Errorf("n=%d want≤%g: got q=%g v=%g, expected q=%g v=%g", c.n, c.want, q, v, c.q, c.at)
		}
	}
	if q, v := quantileAtMost(nil, 0.99); q != 0.5 || v != 0 {
		t.Errorf("empty: q=%g v=%g", q, v)
	}
}

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from CPython.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 12}, 9.5, 11, 12.5},
		{[]float64{5, 7, 6}, 5, 6, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.v); !near(m, c.q2) {
			t.Errorf("median(%v) = %g, want %g", c.v, m, c.q2)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
	if d := worseBy(100, 110, "lower"); !near(d, 0.1) {
		t.Errorf("lower-is-better 100→110 is 10%% worse, got %g", d)
	}
	if d := worseBy(100, 110, "higher"); !near(d, -0.1) {
		t.Errorf("higher-is-better 100→110 is 10%% better, got %g", d)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "encode", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "roundtrip", Start: 4, End: 7}, // overlaps encode by 1
		{ID: 4, Parent: 1, Name: "decode", Start: 9, End: 12},   // sticks out of the parent by 2
		{ID: 5, Parent: 3, Name: "wire", Start: 4.5, End: 5.5},  // grandchild: charged to roundtrip only
		{ID: 6, Name: "probes", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"run":       10 - (5 /* 2..7 */ + 1 /* 9..10 */),
		"encode":    3,
		"roundtrip": 3 - 1,
		"decode":    3,
		"wire":      1,
		"probes":    1,
	}
	for name, w := range want {
		if !near(self[name], w) {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
}

func smallTopology(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.Generate("random?links=16,flows=60,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// stream renders the first n ops of client 0 as their request bodies.
func stream(t *testing.T, topo *topology.Topology, seed int64, n int) ([]op, []byte) {
	t.Helper()
	g, err := newOpGen(seed, 0, topo, batchMix)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]op, n)
	var all bytes.Buffer
	for i := range ops {
		ops[i] = g.next()
		e := encodeSingle(ops[i])
		all.WriteString(e.path)
		all.Write(e.body)
	}
	return ops, all.Bytes()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	topo := smallTopology(t)
	_, a := stream(t, topo, 7, 3000)
	_, b := stream(t, topo, 7, 3000)
	_, c := stream(t, topo, 8, 3000)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different op streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same op stream")
	}
}

// The oracle replays the stream through core.SerialAdmitters; the real
// qosd.Server must give the same answers, unbatched and batched, and the
// stream must exercise admissions, both rejections' worth of pressure,
// leaves and reroutes.
func TestOracleAgreesWithServer(t *testing.T) {
	topo := smallTopology(t)
	ops, _ := stream(t, topo, 11, 4000)
	srv, err := qosd.New(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, w := srv.Handler(), newMemWriter()
	kinds, admitted, refused := map[opKind]int{}, 0, 0
	for i, o := range ops[:2000] {
		e := encodeSingle(o)
		code, err := serve(h, w, e.path, e.body)
		if err != nil {
			t.Fatal(err)
		}
		if wrongSingle(code, w.body.Bytes(), o.want) {
			t.Fatalf("op %d %+v: server said %d %s", i, o, code, w.body.String())
		}
		kinds[o.kind]++
		if o.kind == opJoin {
			if o.want.Admitted {
				admitted++
			} else {
				refused++
			}
		}
	}
	for b := 2000; b+batchSize <= len(ops); b += batchSize {
		e := encodeBatch(ops[b : b+batchSize])
		code, err := serve(h, w, e.path, e.body)
		if err != nil {
			t.Fatal(err)
		}
		if n := wrongBatch(code, w.body.Bytes(), ops[b:b+batchSize]); n != 0 {
			t.Fatalf("batch at %d: %d wrong answers: %s", b, n, w.body.String())
		}
	}
	if kinds[opJoin] == 0 || kinds[opLeave] == 0 || kinds[opReroute] == 0 || admitted == 0 || refused == 0 {
		t.Errorf("stream too tame: kinds %v, %d admitted, %d refused", kinds, admitted, refused)
	}
	// A flipped answer must be caught.
	bad := ops[0]
	bad.want.Admitted = !bad.want.Admitted
	if !wrongSingle(http.StatusOK, mustJSON(t, ops[0].want), bad.want) {
		t.Error("wrongSingle accepted a flipped decision")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A server that stalls once must raise the latency of every request
// that was due during the stall, because each is timed from its due
// time, not from when it could finally be sent or was finally read.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n       = 60
		gap     = 2 * time.Millisecond
		stallAt = 10
		stall   = 40 * time.Millisecond
	)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		br := bufio.NewReader(server)
		for i := 0; i < n; i++ {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			req.Body.Close()
			if i == stallAt {
				time.Sleep(stall)
			}
			fmt.Fprint(server, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
		}
	}()
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = frame("/v1/leave", []byte(`{"flow":"x"}`))
	}
	answers, late, err := openLoopOver([]*conn{{c: client, br: bufio.NewReader(client)}}, [][][]byte{frames}, time.Now().Add(5*time.Millisecond), gap)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0]) != n || len(late) != n {
		t.Fatalf("%d answers, %d lateness samples, want %d", len(answers[0]), len(late), n)
	}
	lat := func(i int) time.Duration { return time.Duration(answers[0][i].latency * float64(time.Second)) }
	if lat(stallAt-2) > stall/4 {
		t.Errorf("request before the stall took %v", lat(stallAt-2))
	}
	if lat(stallAt) < stall {
		t.Errorf("the stalled request took %v, less than the stall %v", lat(stallAt), stall)
	}
	// Request stallAt+5 was due 5 gaps into the stall: it waited out the
	// remaining 30 ms although the server then answered it at once.
	if got, want := lat(stallAt+5), stall-5*gap; got < want {
		t.Errorf("request due during the stall took %v from its due time, want at least %v", got, want)
	}
	if lat(n-1) > stall/4 {
		t.Errorf("backlog never drained: last request took %v", lat(n-1))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must name only what this program implements and stay
// inside the limits the acceptance driver checks before it runs anything.
func TestBenchmarkJSONIsWithinTheContract(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench") //nolint:errcheck
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %+v", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range spec.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer %+v", d)
		}
	}
}
