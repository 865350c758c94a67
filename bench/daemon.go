package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"bufqos/internal/qosd"
	"bufqos/internal/topology"
)

// conn is one keep-alive HTTP/1.1 connection driven directly: a request
// is one write of a prebuilt frame, an answer one read on the calling
// goroutine. net/http's client hands every request to two goroutines per
// connection; on a two-core host that scheduling would be a visible
// share of a 100 µs round trip and none of it is the daemon's.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

func (c *conn) close() { c.c.Close() }

// frame renders one request as the bytes to write; a nil body is a GET.
func frame(path string, body []byte) []byte {
	var b []byte
	if body == nil {
		b = append(b, "GET "...)
	} else {
		b = append(b, "POST "...)
	}
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: qosd\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

func (c *conn) write(frame []byte) error {
	_, err := c.c.Write(frame)
	return err
}

// read takes the next answer off the connection.
func (c *conn) read() (status int, answer []byte, err error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	answer, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, answer, err
}

// do makes one round trip.
func (c *conn) do(path string, body []byte) (status int, answer []byte, err error) {
	if err := c.write(frame(path, body)); err != nil {
		return 0, nil, err
	}
	return c.read()
}

// pauseGC collects now and then keeps this process's collector off until
// the returned function is called. A mark phase takes one of the two Ps
// for milliseconds; while a client loop is being timed that would show
// up as the daemon's latency.
func pauseGC() (resume func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// --- the daemon -----------------------------------------------------------

// buildQosd compiles cmd/qosd into the checkout's build directory.
func buildQosd() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "qosd"))
	if err != nil {
		return "", err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/qosd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/qosd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running qosd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	// exited is closed once the process has been waited for.
	exited chan struct{}
	// bootS is exec → first /healthz 200.
	bootS float64
}

// startDaemon executes qosd on a free loopback port and waits for
// /healthz to answer 200.
func startDaemon(bin, spec string) (*daemon, error) {
	f, err := os.CreateTemp(buildDir, "qosd-*.addr")
	if err != nil {
		return nil, err
	}
	f.Close()
	addrFile := f.Name()
	defer os.Remove(addrFile)
	d := &daemon{cmd: exec.Command(bin, "-gen", spec, "-addr", "127.0.0.1:0", "-addr-file", addrFile)}
	d.cmd.Stderr = &d.stderr
	// If this process is killed mid-run the daemon must not outlive it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	d.exited = exited
	go func() { d.cmd.Wait(); close(exited) }() //nolint:errcheck // stop reads ProcessState
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return nil, fmt.Errorf("qosd exited during start-up: %s", d.stderr.String())
		default:
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 && b[len(b)-1] == '\n' {
				d.addr = string(bytes.TrimSpace(b))
			}
		}
		if d.addr != "" {
			if c, err := dial(d.addr); err == nil {
				status, _, err := c.do("/healthz", nil)
				c.close()
				if err == nil && status == http.StatusOK {
					d.bootS = time.Since(t0).Seconds()
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, errors.New("qosd did not answer /healthz within 60 s")
}

// stop sends SIGTERM and waits; a clean drain exits 0.
func (d *daemon) stop() (drainS float64, err error) {
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, errors.New("qosd did not exit within 30 s of SIGTERM")
	}
	drainS = time.Since(t0).Seconds()
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return drainS, fmt.Errorf("qosd exited %d after SIGTERM: %s", code, d.stderr.String())
	}
	return drainS, nil
}

// kill makes sure the process is gone and waited for.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.exited
}

// admRig is what both admission workloads share: the in-process copy of
// the generated topology (for the oracle), a booted daemon, and the
// set-up and allocation figures.
type admRig struct {
	topo      *topology.Topology
	bin, spec string
	d         *daemon
	out       outcome
	// setupS is every timed in-process set-up, bootS exec → first
	// /healthz 200 of every daemon started, drainS SIGTERM → exit of
	// every daemon stopped.
	setupS, bootS, drainS []float64
	root                  int
	floorUs               float64
}

// timeSetups times n more repeats, in process and on one processor, of
// what the daemon does between exec and its first answer: generate the
// topology and build the server on it. The start of the real daemon is
// that plus an exec and a fresh heap and takes half as long again for
// minutes at a time on the reference host (README); it is reported as
// qosd.boot_s. The workloads call this all through a run, because the
// host slows for seconds at a time and setup_s is the fastest repeat.
func (rig *admRig) timeSetups(rc *runCtx, n int) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := rc.rec.begin("generate", rig.root, 0)
	defer rc.rec.end(sp)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		topo, err := topology.Generate(rig.spec)
		if err != nil {
			return err
		}
		if _, err := qosd.New(topo, nil); err != nil {
			return err
		}
		rig.setupS = append(rig.setupS, time.Since(t0).Seconds())
		if rig.topo == nil {
			rig.topo = topo // the oracle's copy
		}
	}
	return nil
}

// boot starts one more daemon.
func (rig *admRig) boot(rc *runCtx) (*daemon, error) {
	sp := rc.rec.begin("boot", rig.root, 0)
	d, err := startDaemon(rig.bin, rig.spec)
	rc.rec.end(sp)
	if err != nil {
		return nil, err
	}
	rig.bootS = append(rig.bootS, d.bootS)
	return d, nil
}

// drain stops a daemon, which must exit 0.
func (rig *admRig) drain(d *daemon) {
	rig.out.attempted++
	took, err := d.stop()
	if err != nil {
		rig.out.failed++
		rig.out.notes = append(rig.out.notes, err.Error())
	}
	rig.drainS = append(rig.drainS, took)
}

// bootRig times the set-up, builds the daemon and boots it admBoots
// times (checking each discarded one drains cleanly on SIGTERM), keeping
// the last.
func bootRig(rc *runCtx) (*admRig, error) {
	rig := &admRig{out: outcome{metrics: map[string]float64{}}}
	rig.root = rc.rec.begin(rc.workload, 0, 0)
	rig.spec = fmt.Sprintf("random?links=%d,flows=%d,seed=%d", admLinks, admFlows, rc.seed)
	err := rig.timeSetups(rc, admSetups)
	if err != nil {
		return nil, err
	}
	if rig.bin, err = buildQosd(); err != nil {
		return nil, err
	}
	for i := 0; i < admBoots; i++ {
		if rig.d != nil {
			rig.drain(rig.d)
		}
		if rig.d, err = rig.boot(rc); err != nil {
			return nil, err
		}
	}

	// The protocol floor: an empty GET round trip on a warm connection.
	c, err := dial(rig.d.addr)
	if err != nil {
		rig.d.kill()
		return nil, err
	}
	defer c.close()
	var floor []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if status, _, err := c.do("/healthz", nil); err != nil || status != http.StatusOK {
			rig.d.kill()
			return nil, fmt.Errorf("/healthz: status %d, %v", status, err)
		}
		floor = append(floor, time.Since(t0).Seconds())
	}
	rig.floorUs = median(floor) * 1e6
	return rig, nil
}

// replica is an in-process qosd.Server on the daemon's topology, served
// client 0's op stream through its HTTP handler. The daemon is another
// process whose heap cannot be read from here, and a loop through two
// processes cannot be timed steadily on the reference host (README,
// "Why the fastest of many short calls"); this is the same handler code
// on the same requests, on one thread.
type replica struct {
	h http.Handler
	w *memWriter
	g *opGen
}

// newReplica also serves the stream's first allocOps operations and
// records the allocation that did as mallocs_k and alloc_mb.
func (rig *admRig) newReplica(seed int64, mix opMix, batched bool) (*replica, error) {
	srv, err := qosd.New(rig.topo, nil)
	if err != nil {
		return nil, err
	}
	g, err := newOpGen(seed, 0, rig.topo, mix)
	if err != nil {
		return nil, err
	}
	rp := &replica{h: srv.Handler(), w: newMemWriter(), g: g}
	var reqs []encoded
	if batched {
		for i := 0; i < allocOps/batchSize; i++ {
			reqs = append(reqs, encodeBatch(rp.nextBatch()))
		}
	} else {
		for i := 0; i < allocOps; i++ {
			reqs = append(reqs, encodeSingle(g.next()))
		}
	}
	tc, err := measure(func() error {
		for _, r := range reqs {
			if code, err := serve(rp.h, rp.w, r.path, r.body); err != nil || code != http.StatusOK {
				return fmt.Errorf("in-process %s: status %d, %v", r.path, code, err)
			}
		}
		return nil
	})
	rig.out.metrics["mallocs_k"] = tc.mallocs / 1e3
	rig.out.metrics["alloc_mb"] = tc.allocBytes / 1e6
	return rp, err
}

func (rp *replica) nextBatch() []op {
	ops := make([]op, batchSize)
	for j := range ops {
		ops[j] = rp.g.next()
	}
	return ops
}

// finish checks that the daemon's state survives snapshot → restore →
// snapshot byte for byte, reads the daemon's own latency histogram on a
// traced pass, requires a clean exit on SIGTERM, and times the set-up
// again.
func (rig *admRig) finish(rc *runCtx) (outcome, error) {
	defer rc.rec.end(rig.root)
	out := &rig.out
	c, err := dial(rig.d.addr)
	if err != nil {
		rig.d.kill()
		return rig.out, err
	}
	defer c.close()

	out.attempted++
	sp := rc.rec.begin("snapshot", rig.root, 0)
	t0 := time.Now()
	_, before, err := c.do("/v1/snapshot", nil)
	out.metrics["qosd.snapshot_ms"] = time.Since(t0).Seconds() * 1e3
	rc.rec.end(sp)
	if err == nil {
		sp = rc.rec.begin("restore", rig.root, 0)
		t0 = time.Now()
		var status int
		status, _, err = c.do("/v1/restore", before)
		out.metrics["qosd.restore_ms"] = time.Since(t0).Seconds() * 1e3
		rc.rec.end(sp)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("/v1/restore: status %d", status)
		}
	}
	var after []byte
	if err == nil {
		_, after, err = c.do("/v1/snapshot", nil)
	}
	if err != nil || !bytes.Equal(before, after) {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("snapshot round trip: %d vs %d bytes, err %v", len(before), len(after), err))
	}

	if rc.traced {
		if _, body, err := c.do("/metricz", nil); err == nil {
			p50, p99 := histogramQuantiles(body, "qosd.latency.join")
			out.metrics["qosd.server_join_p50_us"] = p50 * 1e6
			out.metrics["qosd.server_join_p99_us"] = p99 * 1e6
		}
		out.metrics["qosd.http_floor_us"] = rig.floorUs
	}

	rig.drain(rig.d)
	if err := rig.timeSetups(rc, admSetups); err != nil {
		return rig.out, err
	}
	out.metrics["setup_s"] = fastest(rig.setupS)
	out.metrics["qosd.boot_s"] = median(rig.bootS)
	out.metrics["qosd.drain_s"] = median(rig.drainS)
	return rig.out, nil
}

// histogramQuantiles reads the p50 and p99 upper bucket bounds of one
// histogram out of a /metricz document.
func histogramQuantiles(metricz []byte, name string) (p50, p99 float64) {
	var doc struct {
		Histograms map[string]struct {
			Bounds []float64 `json:"bounds"`
			Counts []int64   `json:"counts"`
			Count  int64     `json:"count"`
		} `json:"histograms"`
	}
	if json.Unmarshal(metricz, &doc) != nil {
		return 0, 0
	}
	h := doc.Histograms[name]
	at := func(q float64) float64 {
		target, seen := int64(q*float64(h.Count)), int64(0)
		for i, c := range h.Counts {
			seen += c
			if seen > target && i < len(h.Bounds) {
				return h.Bounds[i]
			}
		}
		if len(h.Bounds) > 0 {
			return h.Bounds[len(h.Bounds)-1]
		}
		return 0
	}
	if h.Count == 0 {
		return 0, 0
	}
	return at(0.5), at(0.99)
}
