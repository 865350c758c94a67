package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// spinMargin is how long before an event is due the generator stops
// sleeping and starts polling the clock.
const spinMargin = 100 * time.Microsecond

// openLoop fires n events on a fixed schedule: event k is due at
// start + k·gap and fire(k) is called as soon after that as the previous
// fire returned. It returns how late each event was fired, in seconds.
//
// time.Sleep cannot pace this: an idle Go thread waits in epoll_wait,
// which rounds every wait up to a whole millisecond, ten times the round
// trip being measured. The generator sleeps in nanosleep(2) instead,
// wakes spinMargin early because that call overshoots by tens of
// microseconds, and polls the clock for the remainder. One goroutine
// paces all connections; the answers are read elsewhere.
func openLoop(start time.Time, gap time.Duration, n int, fire func(k int) error) (late []float64, err error) {
	late = make([]float64, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * gap)
		if d := time.Until(due) - spinMargin; d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early return only means more polling
		}
		for time.Now().Before(due) {
		}
		late = append(late, time.Since(due).Seconds())
		if err := fire(k); err != nil {
			return late, err
		}
	}
	return late, nil
}

// answer is what came back for one request and when, as seconds after
// the request was due.
type answer struct {
	status  int
	body    []byte
	latency float64
}

// openLoopOver offers frames[c][i] on conns[c] on one shared schedule —
// request i of connection c is due at start + (i·len(conns) + c)·gap —
// without waiting for answers: arrivals are independent users, so a slow
// answer must not hold back the next request (HTTP/1.1 lets requests
// queue on a connection; the daemon answers them in order). One reader
// per connection stamps each answer against the time its request was
// due, so a stall is charged to every request that was due while it
// lasted, not only to the one that hit it.
func openLoopOver(conns []*conn, frames [][][]byte, start time.Time, gap time.Duration) (answers [][]answer, late []float64, err error) {
	nc := len(conns)
	answers = make([][]answer, nc)
	readErr := make([]error, nc)
	var wg sync.WaitGroup
	for c := range conns {
		answers[c] = make([]answer, len(frames[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range answers[c] {
				status, body, err := conns[c].read()
				if err != nil {
					readErr[c] = err
					return
				}
				due := start.Add(time.Duration(i*nc+c) * gap)
				answers[c][i] = answer{status: status, body: body, latency: time.Since(due).Seconds()}
			}
		}(c)
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	late, err = openLoop(start, gap, total, func(k int) error {
		c, i := k%nc, k/nc
		if i >= len(frames[c]) {
			return nil
		}
		return conns[c].write(frames[c][i])
	})
	if err != nil {
		// A reader may be blocked on an answer that will never come.
		for _, c := range conns {
			c.close()
		}
	}
	wg.Wait()
	for _, e := range readErr {
		if err == nil && e != nil {
			err = e
		}
	}
	return answers, late, err
}

// singlePhase is one stretch of the open-loop schedule: every client's
// next n ops generated and encoded ahead, offered on schedule, and
// checked against the oracle afterwards.
type singlePhase struct {
	latency, late    []float64
	encodeS, decodeS []float64
	wrong            int
	wallS            float64
}

func runSinglePhase(rc *runCtx, parent int, name string, gens []*opGen, conns []*conn, seconds float64) (singlePhase, error) {
	var ph singlePhase
	sp := rc.rec.begin(name, parent, 0)
	defer rc.rec.end(sp)
	n := int(seconds * singleRate / float64(len(conns)))
	ops := make([][]op, len(conns))
	frames := make([][][]byte, len(conns))
	for c, g := range gens {
		ops[c], frames[c] = make([]op, n), make([][]byte, n)
		for i := range ops[c] {
			ops[c][i] = g.next()
			id := int64(c)<<32 | int64(i)
			esp := rc.rec.begin("encode", sp, id)
			t0 := time.Now()
			e := encodeSingle(ops[c][i])
			frames[c][i] = frame(e.path, e.body)
			ph.encodeS = append(ph.encodeS, time.Since(t0).Seconds())
			rc.rec.end(esp)
		}
	}
	gap := time.Duration(float64(time.Second) / singleRate)
	resume := pauseGC()
	start := time.Now().Add(time.Millisecond)
	osp := rc.rec.begin("offer", sp, 0)
	answers, late, err := openLoopOver(conns, frames, start, gap)
	rc.rec.end(osp)
	resume()
	ph.wallS = time.Since(start).Seconds()
	if err != nil {
		return ph, err
	}
	ph.late = late
	for c := range answers {
		for i, a := range answers[c] {
			id := int64(c)<<32 | int64(i)
			dsp := rc.rec.begin("decode", sp, id)
			t0 := time.Now()
			if wrongSingle(a.status, a.body, ops[c][i].want) {
				ph.wrong++
			}
			ph.decodeS = append(ph.decodeS, time.Since(t0).Seconds())
			rc.rec.end(dsp)
			due := start.Add(time.Duration(i*len(conns)+c) * gap)
			rc.rec.add("roundtrip", osp, id, due, due.Add(time.Duration(a.latency*float64(time.Second))))
			ph.latency = append(ph.latency, a.latency)
		}
	}
	return ph, nil
}

func admSingle(rc *runCtx) (outcome, error) {
	rig, err := bootRig(rc)
	if err != nil {
		return outcome{}, err
	}
	defer rig.d.kill()
	if _, err := rig.newReplica(rc.seed, singleMix, false); err != nil {
		return rig.out, err
	}
	gens := make([]*opGen, admClients)
	conns := make([]*conn, admClients)
	for c := range conns {
		if gens[c], err = newOpGen(rc.seed, c, rig.topo, singleMix); err != nil {
			return rig.out, err
		}
		if conns[c], err = dial(rig.d.addr); err != nil {
			return rig.out, err
		}
		defer conns[c].close()
	}
	warm, err := runSinglePhase(rc, rig.root, "warmup", gens, conns, singleWarmup)
	if err != nil {
		return rig.out, err
	}
	// The measured schedule is offered in singleParts stretches with the
	// set-up timed between them: nothing else may run beside the
	// generator, and setup_s wants samples from all through the run.
	var ph singlePhase
	for part := 0; part < singleParts; part++ {
		if err := rig.timeSetups(rc, admSetups); err != nil {
			return rig.out, err
		}
		p, err := runSinglePhase(rc, rig.root, "run", gens, conns, rc.seconds/singleParts)
		if err != nil {
			return rig.out, err
		}
		ph.latency, ph.late = append(ph.latency, p.latency...), append(ph.late, p.late...)
		ph.encodeS, ph.decodeS = append(ph.encodeS, p.encodeS...), append(ph.decodeS, p.decodeS...)
		ph.wrong, ph.wallS = ph.wrong+p.wrong, ph.wallS+p.wallS
	}

	wrong := warm.wrong + ph.wrong
	over := wrong // a wrong answer misses the limit whenever it came
	for _, l := range ph.latency {
		if l > latencyLimit {
			over++
		}
	}
	joins, admitted := 0, 0
	for _, g := range gens {
		joins += g.joins
		admitted += g.admitted
	}
	n := len(ph.latency)
	s := sorted(ph.latency)
	_, p50 := quantileAtMost(s, 0.5)
	q99, p99 := quantileAtMost(s, 0.99)
	q999, p999 := quantileAtMost(s, 0.999)
	_, lateP99 := quantileAtMost(sorted(ph.late), 0.99)
	m := rig.out.metrics
	m["run_s"] = ph.wallS
	m["decisions_per_s"] = float64(n) / ph.wallS
	m["latency_p50_us"] = p50 * 1e6
	m["latency_p99_us"] = p99 * 1e6
	m["over_limit_frac"] = float64(over) / float64(n)
	m["qosd.latency_p999_us"] = p999 * 1e6
	m["qosd.gen_lateness_p99_us"] = lateP99 * 1e6
	m["qosd.client_encode_us"] = median(ph.encodeS) * 1e6
	m["qosd.client_decode_us"] = median(ph.decodeS) * 1e6
	rig.out.attempted += n + len(warm.latency)
	rig.out.failed += wrong
	rig.out.notes = append(rig.out.notes,
		fmt.Sprintf("open loop over loopback: %g ops/s on %d connections, %d ops timed from their due times (p%g and p%g reported), generator lateness p99 %.1f us",
			singleRate, len(conns), n, q99*100, q999*100, lateP99*1e6),
		fmt.Sprintf("%d of %d joins admitted (%.0f%%)", admitted, joins, 100*float64(admitted)/float64(max(joins, 1))))
	return rig.finish(rc)
}
