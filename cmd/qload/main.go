// Command qload drives a running qosd daemon with a deterministic,
// seeded stream of join / leave / reroute requests from N concurrent
// clients and prints one summary line: the decision count, how many
// joins were admitted, and a checksum over every decision. It is a
// correctness client; the daemon's throughput and latency are measured
// by the repository's benchmark (`go run ./bench`, workloads adm-*).
//
// Usage:
//
//	qload -addr 127.0.0.1:8080 -clients 8 -ops 1000000 -passes 2
//	qload -addr $(cat qosd.addr) -ops 5000 -check-snapshot
//
// Determinism: the daemon's links are partitioned across clients
// (link i belongs to client i mod N), every client routes its flows
// only over its own links, and each client derives its operation
// stream from its own seeded generator. Admission decisions on a link
// therefore depend only on its owner's request order, so the combined
// decision checksum is bit-identical for a fixed -seed and -clients —
// regardless of goroutine scheduling or network timing. With
// -passes 2 qload proves it: the daemon is reset and the workload
// replayed, and the two checksums must match.
//
// -check-snapshot additionally round-trips the daemon's state at the
// end: GET /v1/snapshot, POST it back to /v1/restore, GET again, and
// require byte-identical documents.
//
// qload exits 1 when the two passes' checksums differ or the snapshot
// round trip fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"

	"bufqos/internal/cli"
	"bufqos/internal/packet"
	"bufqos/internal/qosd"
	"bufqos/internal/sim"
	"bufqos/internal/units"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "qosd address (host:port)")
		clients  = flag.Int("clients", 8, "concurrent client goroutines")
		ops      = flag.Int("ops", 200000, "total operations across all clients")
		seed     = flag.Int64("seed", 1, "base seed for the operation streams")
		batch    = flag.Int("batch", 64, "joins per /v1/batch request")
		passes   = flag.Int("passes", 1, "replay passes; 2 resets the daemon and checks checksum equality")
		maxAct   = flag.Int("max-active", 4096, "per-client cap on concurrently joined flows")
		joinFrac = flag.Float64("join-frac", 0.60, "fraction of operations that are joins")
		leaveFrc = flag.Float64("leave-frac", 0.25, "fraction of operations that are leaves (the rest reroute)")
		checkSnp = flag.Bool("check-snapshot", false, "after the replay, require snapshot -> restore -> snapshot to be byte-identical")
	)
	flag.Parse()
	// Every client must run at least one operation, or a pass that sends
	// nothing would "agree" with its replay.
	if *clients <= 0 || *ops < *clients || *batch <= 0 || *passes < 1 || *passes > 2 {
		cli.Fatalf("need -clients > 0, -ops >= -clients, -batch > 0, -passes 1 or 2")
	}
	if *joinFrac < 0 || *leaveFrc < 0 || *joinFrac+*leaveFrc > 1 {
		cli.Fatalf("need -join-frac >= 0, -leave-frac >= 0, and their sum <= 1")
	}
	cfg := loadConfig{
		clients: *clients, ops: *ops, batch: *batch, maxActive: *maxAct,
		seed: *seed, joinFrac: *joinFrac, leaveFrac: *leaveFrc,
	}

	base := "http://" + *addr
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients + 2}}

	var health qosd.Health
	if err := getJSON(hc, base+"/healthz", &health); err != nil {
		cli.Fatalf("daemon not reachable at %s: %v", base, err)
	}
	var links []qosd.LinkState
	if err := getJSON(hc, base+"/v1/links", &links); err != nil {
		cli.Fatalf("listing links: %v", err)
	}
	if len(links) < *clients {
		cli.Fatalf("%d links cannot be partitioned over %d clients", len(links), *clients)
	}
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.Name
	}

	// Every pass starts from an empty daemon so replays of the same
	// seed always see the same admission state.
	resetDaemon(hc, base)
	first := runPass(hc, base, names, cfg)
	identical := true
	if *passes == 2 {
		resetDaemon(hc, base)
		second := runPass(hc, base, names, cfg)
		identical = first.checksum == second.checksum
		if !identical {
			fmt.Fprintf(os.Stderr, "qload: PASS MISMATCH: %016x vs %016x\n", first.checksum, second.checksum)
		}
	}

	if *checkSnp {
		if err := checkSnapshotRoundTrip(hc, base); err != nil {
			cli.Fatalf("snapshot round trip: %v", err)
		}
		fmt.Fprintln(os.Stderr, "qload: snapshot -> restore -> snapshot byte-identical")
	}

	fmt.Printf("qload: %d decisions, %d admitted, checksum %016x\n", first.decisions, first.admitted, first.checksum)
	if !identical {
		os.Exit(1)
	}
}

// loadConfig is one replay's shape: how many clients, how many
// operations, and the join/leave/reroute mix.
type loadConfig struct {
	clients, ops, batch, maxActive int
	seed                           int64
	joinFrac, leaveFrac            float64
}

// clientOps is how many of cfg.ops client c runs: an equal share, and
// one more for each of the first ops%clients clients, so the shares add
// up to ops.
func (cfg loadConfig) clientOps(c int) int {
	n := cfg.ops / cfg.clients
	if c < cfg.ops%cfg.clients {
		n++
	}
	return n
}

// passResult aggregates one full replay.
type passResult struct {
	decisions, admitted int
	checksum            uint64
}

// specTemplates are the reservation profiles the generator draws from.
// All rates and sizes are integers (in bits/s and bytes), so per-link
// aggregate sums are exact in float64 no matter the admission order —
// which is what makes snapshot round trips byte-identical.
func specTemplates() []packet.FlowSpec {
	sigmas := []units.Bytes{units.KiloBytes(10), units.KiloBytes(20), units.KiloBytes(40), units.KiloBytes(60)}
	rhos := []units.Rate{100_000, 250_000, 500_000, 1_000_000}
	var out []packet.FlowSpec
	for _, s := range sigmas {
		for _, r := range rhos {
			out = append(out, packet.FlowSpec{PeakRate: 4 * r, TokenRate: r, BucketSize: s})
		}
	}
	return out
}

func runPass(hc *http.Client, base string, links []string, cfg loadConfig) passResult {
	results := make([]passResult, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(hc, base, links, c, cfg)
		}(c)
	}
	wg.Wait()

	var total passResult
	h := fnv.New64a()
	for c, r := range results {
		total.decisions += r.decisions
		total.admitted += r.admitted
		fmt.Fprintf(h, "%d:%016x;", c, r.checksum)
	}
	total.checksum = h.Sum64()
	return total
}

// runClient replays one client's deterministic operation stream over
// its own partition of the links (link i where i mod clients == c).
func runClient(hc *http.Client, base string, links []string, c int, cfg loadConfig) passResult {
	var owned []string
	for i := c; i < len(links); i += cfg.clients {
		owned = append(owned, links[i])
	}
	rng := sim.NewRand(cfg.seed + int64(c)*1000003)
	specs := specTemplates()
	h := fnv.New64a()
	var res passResult
	var active []string
	var pending []qosd.BatchOp
	nameSeq := 0

	// pickRoute draws 1-3 distinct owned links by rejection sampling —
	// a full Perm over the partition would dominate client CPU.
	var idx [3]int
	pickRoute := func() []string {
		n := 1 + rng.Intn(min(3, len(owned)))
		route := make([]string, 0, n)
		for len(route) < n {
			k := rng.Intn(len(owned))
			dup := false
			for _, p := range idx[:len(route)] {
				if p == k {
					dup = true
					break
				}
			}
			if !dup {
				idx[len(route)] = k
				route = append(route, owned[k])
			}
		}
		return route
	}
	// sum folds one decision into the client checksum without fmt's
	// per-call formatting overhead.
	sum := func(kind byte, flow string, admitted bool, link, reason string) {
		ok := byte('0')
		if admitted {
			ok = '1'
		}
		h.Write([]byte{kind, '|'})    //nolint:errcheck
		io.WriteString(h, flow)       //nolint:errcheck
		h.Write([]byte{'|', ok, '|'}) //nolint:errcheck
		io.WriteString(h, link)       //nolint:errcheck
		h.Write([]byte{'|'})          //nolint:errcheck
		io.WriteString(h, reason)     //nolint:errcheck
		h.Write([]byte{';'})          //nolint:errcheck
	}
	flush := func() {
		if len(pending) == 0 {
			return
		}
		var resp qosd.BatchResponse
		code := post(hc, base+"/v1/batch", qosd.BatchRequest{Ops: pending}, &resp)
		if code != 200 || len(resp.Decisions) != len(pending) {
			cli.Fatalf("client %d: batch: code %d, %d decisions for %d ops", c, code, len(resp.Decisions), len(pending))
		}
		for i, d := range resp.Decisions {
			if d.Error != "" {
				cli.Fatalf("client %d: batch entry %s: %s", c, d.Flow, d.Error)
			}
			res.decisions++
			switch pending[i].Op {
			case "join":
				sum('J', d.Flow, d.Admitted, d.Link, d.Reason)
				if d.Admitted {
					res.admitted++
					active = append(active, d.Flow)
				}
			case "leave":
				sum('L', d.Flow, d.Admitted, "", "")
			case "reroute":
				sum('R', d.Flow, d.Admitted, d.Link, d.Reason)
			}
		}
		pending = pending[:0]
	}
	queue := func(op qosd.BatchOp) {
		pending = append(pending, op)
		if len(pending) >= cfg.batch {
			flush()
		}
	}

	for op := 0; op < cfg.clientOps(c); op++ {
		p := rng.Float64()
		switch {
		case (p < cfg.joinFrac || len(active) == 0 && len(pending) == 0) && len(active) < cfg.maxActive:
			name := "c" + strconv.Itoa(c) + "-" + strconv.Itoa(nameSeq)
			nameSeq++
			queue(qosd.BatchOp{Op: "join", Flow: name, Links: pickRoute(), Spec: &specs[rng.Intn(len(specs))]})
		case p < cfg.joinFrac+cfg.leaveFrac || len(active) == 0:
			if len(active) == 0 {
				// Pending joins have not materialized yet; force them
				// through so there is something to leave.
				flush()
				if len(active) == 0 {
					continue
				}
			}
			i := rng.Intn(len(active))
			name := active[i]
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			queue(qosd.BatchOp{Op: "leave", Flow: name})
		default:
			queue(qosd.BatchOp{Op: "reroute", Flow: active[rng.Intn(len(active))], Links: pickRoute()})
		}
	}
	flush()
	res.checksum = h.Sum64()
	return res
}

// resetDaemon clears the daemon's flow table by restoring an empty
// snapshot.
func resetDaemon(hc *http.Client, base string) {
	var rr qosd.RestoreResponse
	if code := post(hc, base+"/v1/restore", qosd.Snapshot{}, &rr); code != 200 {
		cli.Fatalf("reset: code %d", code)
	}
}

func checkSnapshotRoundTrip(hc *http.Client, base string) error {
	before, err := getRaw(hc, base+"/v1/snapshot")
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/v1/restore", "application/json", bytes.NewReader(before))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("restore: code %d", resp.StatusCode)
	}
	after, err := getRaw(hc, base+"/v1/snapshot")
	if err != nil {
		return err
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("snapshots differ (%d vs %d bytes)", len(before), len(after))
	}
	return nil
}

func post(hc *http.Client, url string, body, out any) int {
	b, err := json.Marshal(body)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		cli.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			cli.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: code %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getRaw(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: code %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
