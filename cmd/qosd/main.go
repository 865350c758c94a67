// Command qosd runs the admission control plane as a daemon: it loads
// a topology (or generates one), builds one admission shard per link,
// and serves flow join / leave / reroute decisions over HTTP/JSON —
// the paper's §2.3 schedulability regions as a long-running service.
//
// Usage:
//
//	qosd -topology topologies/tandem3.json
//	qosd -gen "random?links=1000,flows=100000,seed=1" -addr 127.0.0.1:9090
//	qosd -addr 127.0.0.1:0 -addr-file /tmp/qosd.addr -gen "line?links=8"
//
// The daemon starts with an empty flow table (declared flows in the
// topology file parameterize the simulator, not the control plane) and
// drains gracefully on SIGTERM/SIGINT: in-flight requests finish, new
// connections are refused, and the final flow count is reported. With
// -addr 127.0.0.1:0 the kernel picks a free port; -addr-file publishes
// the bound address for scripts to discover.
//
// See internal/qosd for the API surface (/v1/join, /v1/batch,
// /v1/leave, /v1/reroute, /v1/snapshot, /v1/restore, /v1/links,
// /healthz, /metricz).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"bufqos/internal/cli"
	"bufqos/internal/metrics"
	"bufqos/internal/qosd"
	"bufqos/internal/topology"
)

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, so idle or slow clients cannot hold connections
// open indefinitely. Decision bodies are bounded by size in
// internal/qosd.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		topoPath  = flag.String("topology", "", "JSON scenario file (required unless -gen)")
		genSpec   = flag.String("gen", "", "generate a synthetic topology instead, e.g. 'random?links=1000,flows=100000,seed=1'")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening")
		drainSecs = flag.Float64("drain-timeout", 10, "seconds to wait for in-flight requests on shutdown")
		pprofOut  = flag.String("pprof", "", "write a CPU profile of the serving loop to this file")
	)
	flag.Parse()

	if (*topoPath == "") == (*genSpec == "") {
		cli.Fatalf("exactly one of -topology or -gen is required")
	}
	var topo *topology.Topology
	var err error
	if *genSpec != "" {
		topo, err = topology.Generate(*genSpec)
	} else {
		topo, err = topology.Load(*topoPath)
	}
	if err != nil {
		cli.Fatalf("%v", err)
	}

	// The long-lived admission state is tiny next to the per-request
	// garbage, so the default GC target collects far too eagerly under
	// batch load. Trade some RSS for fewer cycles unless the operator
	// has already tuned GOGC.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	reg := metrics.NewRegistry()
	srv, err := qosd.New(topo, reg)
	if err != nil {
		cli.Fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// The file appears only after the socket is live, so pollers
		// that read it never race the bind.
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			cli.Fatalf("writing -addr-file: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "qosd: topology %s (%d links) on http://%s\n",
		topo.Name, srv.NumLinks(), bound)

	defer cli.CPUProfile(*pprofOut)()

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		cli.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight decisions finish.
	fmt.Fprintf(os.Stderr, "qosd: draining (%d flows active)\n", srv.NumFlows())
	dctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs*float64(time.Second)))
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		cli.Fatalf("drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Fatalf("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "qosd: drained cleanly, %d flows at shutdown\n", srv.NumFlows())
}
