package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// --- adm-batch: the batch handler in process, then a closed loop -----------

// pass generates n batches, serves them through the replica and checks
// every answer against the oracle. Only the serving is timed, and it
// starts from a collected heap: generating and checking leave more
// garbage than serving, and whether a pass of a few milliseconds shares
// its processor with the collector would otherwise be a lottery.
func (rp *replica) pass(n int) (tookS float64, wrong int, err error) {
	ops, reqs, answers := make([][]op, n), make([]encoded, n), make([][]byte, n)
	for b := range ops {
		ops[b] = rp.nextBatch()
		reqs[b] = encodeBatch(ops[b])
	}
	runtime.GC()
	t0 := time.Now()
	for b, r := range reqs {
		if code, err := serve(rp.h, rp.w, r.path, r.body); err != nil || code != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process %s: status %d, %v", r.path, code, err)
		}
		answers[b] = bytes.Clone(rp.w.body.Bytes())
	}
	tookS = time.Since(t0).Seconds()
	for b := range ops {
		wrong += wrongBatch(http.StatusOK, answers[b], ops[b])
	}
	return tookS, wrong, nil
}

// timeReplica fills client 0's links through the replica, untimed, then
// times passes of batchPassOps for the given seconds, on one processor
// for the reason runSim gives.
func (rig *admRig) timeReplica(rc *runCtx, rp *replica, seconds float64) (passS []float64, served, wrong int, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := (batchWarmOps/admClients - allocOps) / batchSize
	if _, wrong, err = rp.pass(warm); err != nil {
		return nil, 0, 0, err
	}
	served = warm * batchSize
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(passS) < minRepeats || time.Now().Before(deadline) {
		took, w, err := rp.pass(batchPassOps / batchSize)
		if err != nil {
			return nil, 0, 0, err
		}
		passS, served, wrong = append(passS, took), served+batchPassOps, wrong+w
		if len(passS)%batchSetupEvery == 0 {
			if err := rig.timeSetups(rc, 1); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return passS, served, wrong, nil
}

// batchClient is one connection's closed loop. A pass has three steps,
// each run by all clients together: prepare generates and encodes the
// batches, send keeps a window of them in flight until all are answered,
// verify decodes and checks the answers. Only send is timed, so that
// between the first write and the last read this process does nothing
// but wait on the daemon.
type batchClient struct {
	gen  *opGen
	conn *conn

	ops     [][]op
	frames  [][]byte
	status  []int
	answers [][]byte
	rtt     []float64
	wrong   int
	err     error
}

func (bc *batchClient) opID(pass, b int) int64 {
	return int64(bc.gen.client)<<48 | int64(pass)<<24 | int64(b)
}

func (bc *batchClient) prepare(rc *runCtx, parent, pass, n int) {
	bc.ops, bc.frames = make([][]op, n), make([][]byte, n)
	bc.status, bc.answers, bc.rtt = make([]int, n), make([][]byte, n), make([]float64, n)
	for b := range bc.ops {
		bc.ops[b] = make([]op, batchSize)
		for j := range bc.ops[b] {
			bc.ops[b][j] = bc.gen.next()
		}
		sp := rc.rec.begin("encode", parent, bc.opID(pass, b))
		e := encodeBatch(bc.ops[b])
		bc.frames[b] = frame(e.path, e.body)
		rc.rec.end(sp)
	}
}

// send keeps up to batchWindow requests in flight: the daemon finds the
// next batch already in its socket when it has answered one, so what is
// timed is the daemon deciding, not two processes waking each other.
func (bc *batchClient) send(rc *runCtx, parent, pass int) {
	spans, sentAt := make([]int, len(bc.frames)), make([]time.Time, len(bc.frames))
	write := func(b int) {
		spans[b] = rc.rec.begin("roundtrip", parent, bc.opID(pass, b))
		sentAt[b] = time.Now()
		bc.err = bc.conn.write(bc.frames[b])
	}
	next := 0
	for ; next < min(batchWindow, len(bc.frames)) && bc.err == nil; next++ {
		write(next)
	}
	for b := 0; b < len(bc.frames) && bc.err == nil; b++ {
		bc.status[b], bc.answers[b], bc.err = bc.conn.read()
		bc.rtt[b] = time.Since(sentAt[b]).Seconds()
		rc.rec.end(spans[b])
		if next < len(bc.frames) && bc.err == nil {
			write(next)
			next++
		}
	}
}

func (bc *batchClient) verify(rc *runCtx, parent, pass int) {
	for b := range bc.ops {
		sp := rc.rec.begin("decode", parent, bc.opID(pass, b))
		bc.wrong += wrongBatch(bc.status[b], bc.answers[b], bc.ops[b])
		rc.rec.end(sp)
	}
}

// together runs step on every client at once and waits for all.
func together(clients []*batchClient, step func(*batchClient)) {
	var wg sync.WaitGroup
	for _, bc := range clients {
		wg.Add(1)
		go func(bc *batchClient) {
			defer wg.Done()
			step(bc)
		}(bc)
	}
	wg.Wait()
}

func admBatch(rc *runCtx) (outcome, error) {
	rig, err := bootRig(rc)
	if err != nil {
		return outcome{}, err
	}
	defer rig.d.kill()
	rp, err := rig.newReplica(rc.seed, batchMix, true)
	if err != nil {
		return rig.out, err
	}
	// Half the run times the handler in process, for the gated figures;
	// the other half loads the daemon, for the checks and the per-layer ones.
	measureFor := rc.seconds / 2
	if rc.traced {
		measureFor = min(measureFor, tracedBatchSeconds) // every batch leaves three spans
	}
	sp := rc.rec.begin("replica", rig.root, 0)
	replicaS, served, wrongReplica, err := rig.timeReplica(rc, rp, measureFor)
	rc.rec.end(sp)
	if err != nil {
		return rig.out, err
	}
	clients := make([]*batchClient, admClients)
	for c := range clients {
		g, err := newOpGen(rc.seed, c, rig.topo, batchMix)
		if err != nil {
			return rig.out, err
		}
		cn, err := dial(rig.d.addr)
		if err != nil {
			return rig.out, err
		}
		defer cn.close()
		clients[c] = &batchClient{gen: g, conn: cn}
	}

	// joinTotals sums the generated joins and how many the oracle admitted.
	joinTotals := func() (joins, admitted int) {
		for _, bc := range clients {
			joins += bc.gen.joins
			admitted += bc.gen.admitted
		}
		return joins, admitted
	}

	// Pass 0 fills the links and is not timed: from then on the daemon
	// is in the steady state where about half the joins are refused. The
	// timed passes are short for the reason simwl.go gives for its
	// horizons.
	var (
		passS, rtt          []float64
		sent                int
		warmJoins, warmAdms int
		deadline            time.Time
	)
	for pass := 0; pass <= minRepeats || time.Now().Before(deadline); pass++ {
		passOps := batchPassOps
		if pass == 0 {
			passOps = batchWarmOps
		}
		psp := rc.rec.begin("pass", rig.root, int64(pass))
		together(clients, func(bc *batchClient) { bc.prepare(rc, psp, pass, passOps/batchSize/admClients) })
		ssp := rc.rec.begin("send", psp, int64(pass))
		resume := pauseGC()
		t0 := time.Now()
		together(clients, func(bc *batchClient) { bc.send(rc, ssp, pass) })
		took := time.Since(t0).Seconds()
		resume()
		rc.rec.end(ssp)
		for _, bc := range clients {
			if bc.err != nil {
				return rig.out, bc.err
			}
		}
		together(clients, func(bc *batchClient) { bc.verify(rc, psp, pass) })
		rc.rec.end(psp)
		sent += passOps
		if pass == 0 {
			warmJoins, warmAdms = joinTotals()
			deadline = time.Now().Add(time.Duration(measureFor * float64(time.Second)))
			continue
		}
		passS = append(passS, took)
		for _, bc := range clients {
			rtt = append(rtt, bc.rtt...)
		}
		if len(passS)%batchSetupEvery == 0 {
			if err := rig.timeSetups(rc, 1); err != nil {
				return rig.out, err
			}
		}
	}
	joins, admitted := joinTotals()
	joins, admitted = joins-warmJoins, admitted-warmAdms
	wrong := 0
	for _, bc := range clients {
		wrong += bc.wrong
	}

	s := sorted(rtt)
	_, p50 := quantileAtMost(s, 0.5)
	q99, p99 := quantileAtMost(s, 0.99)
	_, p999 := quantileAtMost(s, 0.999)
	m := rig.out.metrics
	m["run_s"] = fastest(replicaS)
	m["decisions_per_s"] = batchPassOps / fastest(replicaS)
	m["qosd.loopback_decisions_per_s"] = batchPassOps / fastest(passS)
	m["latency_p50_us"] = p50 * 1e6
	m["latency_p99_us"] = p99 * 1e6
	m["qosd.latency_p999_us"] = p999 * 1e6
	rig.out.attempted += sent + served
	rig.out.failed += wrong + wrongReplica
	admitFrac := float64(admitted) / float64(max(joins, 1))
	rig.out.attempted++
	if admitFrac < 0.4 || admitFrac > 0.6 {
		rig.out.failed++
	}
	rig.out.notes = append(rig.out.notes,
		fmt.Sprintf("in process: %d timed passes of %d ops through the batch handler on one thread, the fastest reported as run_s and decisions_per_s", len(replicaS), batchPassOps),
		fmt.Sprintf("closed loop over loopback: %d clients with %d batches of %d in flight each, %d timed passes of %d ops after %d to fill the links, the fastest reported as qosd.loopback_decisions_per_s; latency_* is the batch round trip (%d samples, p%g reported)",
			admClients, batchWindow, batchSize, len(passS), batchPassOps, batchWarmOps, len(rtt), q99*100),
		fmt.Sprintf("%d of %d timed joins admitted (%.0f%%)", admitted, joins, 100*admitFrac))
	return rig.finish(rc)
}
