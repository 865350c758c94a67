package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/network"
	"bufqos/internal/packet"
	"bufqos/internal/qosd"
	"bufqos/internal/sched"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/sizing"
	"bufqos/internal/source"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// The probes price one operation of each layer from outside, through
// public constructors only, with a fixed iteration count per batch and
// the median over probeBatches batches. They do not depend on the
// workload: every traced run reports the same ledger of unit costs, and
// ledger.explained_frac multiplies them by that workload's exact counts.
const (
	probeBatches = 5
	probeIters   = 200_000
	// probeTopology is the scenario the topology probes generate, run
	// and verify: large enough for Generate's cost to show, small
	// enough to run in every traced pass.
	probeTopologyFmt = "random?links=100,flows=5000,seed=%d"
	probeTopologySim = 0.02
)

// probeResult is one batch: nanoseconds and heap allocations per op.
type probeResult struct{ ns, allocs float64 }

// batches runs a probe's batch function probeBatches times and returns
// the medians. The batch function performs iters operations and
// returns how long they took; set-up it does before starting its clock
// is not counted.
func batches(iters int, batch func(iters int) time.Duration) probeResult {
	var ns, allocs []float64
	for b := 0; b < probeBatches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		took := batch(iters)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(took.Nanoseconds())/float64(iters))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(iters))
	}
	return probeResult{ns: median(ns), allocs: median(allocs)}
}

// table1Thresholds are the paper's thresholds for Table 1 on the 48 Mb/s
// link with a 1 MB buffer: the manager probes' population.
func table1Thresholds() ([]units.Bytes, error) {
	return core.Thresholds(experiment.Specs(experiment.Table1Flows()), experiment.DefaultLinkRate, units.MegaBytes(1))
}

// admitRelease prices one Admit followed by its Release on mgr, cycling
// over nine flows as the root micro-benchmarks do.
func admitRelease(mgr buffer.Manager) probeResult {
	return batches(probeIters, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if mgr.Admit(i%9, 500) {
				mgr.Release(i%9, 500)
			}
		}
		return time.Since(t0)
	})
}

// stepUntil drives s until *count reaches n and returns the wall time.
func stepUntil(s *sim.Simulator, count *int, n int) time.Duration {
	t0 := time.Now()
	for *count < n && s.Step() {
	}
	return time.Since(t0)
}

func runProbes(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	put := func(name string, v float64) { m[name] = v }

	// --- sim ---
	chain := func(pending int) probeResult {
		return batches(probeIters, func(n int) time.Duration {
			s := sim.New()
			for i := 0; i < pending; i++ {
				s.At(1e9+float64(i), func() {})
			}
			count := 0
			var next func()
			next = func() {
				count++
				if count < n {
					s.After(1e-6, next)
				}
			}
			s.After(0, next)
			return stepUntil(s, &count, n)
		})
	}
	put("sim.schedule_dispatch_ns", chain(0).ns)
	put("sim.deep_schedule_dispatch_ns", chain(100_000).ns)
	put("sim.cancel_reschedule_ns", batches(probeIters, func(n int) time.Duration {
		s := sim.New()
		fn := func() {}
		e := s.At(1e18, fn)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Cancel()
			e = s.At(1e18, fn)
		}
		return time.Since(t0)
	}).ns)

	// --- source ---
	onoff := batches(probeIters, func(n int) time.Duration {
		s := sim.New()
		count := 0
		source.NewOnOff(s, sim.NewRand(seed), source.OnOffConfig{
			Flow: 0, PacketSize: 500,
			PeakRate: units.MbitsPerSecond(40), AvgRate: units.MbitsPerSecond(16), MeanBurst: units.KiloBytes(250),
		}, source.SinkFunc(func(*packet.Packet) { count++ })).Start()
		return stepUntil(s, &count, n)
	})
	put("source.onoff_emit_ns", onoff.ns)
	put("source.onoff_allocs_per_pkt", onoff.allocs)
	cbr := batches(probeIters, func(n int) time.Duration {
		s := sim.New()
		count := 0
		source.NewCBR(s, 0, 500, units.MbitsPerSecond(16), source.SinkFunc(func(*packet.Packet) { count++ })).Start()
		return stepUntil(s, &count, n)
	})
	put("source.cbr_emit_ns", cbr.ns)
	// Shaper and meter sit behind a CBR source at twice the token rate;
	// the CBR emission is subtracted so the figure is the regulator's own.
	regulated := func(wrap func(s *sim.Simulator, spec packet.FlowSpec, sink source.Sink) source.Sink) probeResult {
		return batches(probeIters, func(n int) time.Duration {
			s := sim.New()
			count := 0
			spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(8), BucketSize: units.KiloBytes(50)}
			reg := wrap(s, spec, source.SinkFunc(func(*packet.Packet) { count++ }))
			source.NewCBR(s, 0, 500, units.MbitsPerSecond(16), reg).Start()
			return stepUntil(s, &count, n)
		})
	}
	shaper := regulated(func(s *sim.Simulator, spec packet.FlowSpec, sink source.Sink) source.Sink {
		return source.NewShaper(s, spec, sink)
	})
	// The shaper forwards at half the offered rate, so each shaped
	// packet carries two CBR emissions.
	put("source.shaper_ns_per_pkt", shaper.ns-2*cbr.ns)
	put("source.shaper_allocs_per_pkt", shaper.allocs-2*cbr.allocs)
	meter := regulated(func(s *sim.Simulator, spec packet.FlowSpec, sink source.Sink) source.Sink {
		return source.NewMeter(s, spec, sink)
	})
	put("source.meter_ns_per_pkt", meter.ns-cbr.ns)
	tcp := batches(probeIters, func(n int) time.Duration {
		// One NewReno sender paced at 100 Mb/s into a lossless 10 ms
		// pipe: per delivered segment, the send ring, the pacing and RTO
		// timers, the reassembly bitmap and the ACK clock.
		s := sim.New()
		count := 0
		d := network.NewDeliveryLight(s, 1)
		var snd *source.TCP
		snd = source.NewTCP(s, source.TCPConfig{Flow: 0, SegmentSize: 1500, PaceRate: units.MbitsPerSecond(100)},
			source.SinkFunc(func(p *packet.Packet) {
				s.After(0.005, func() { count++; p.Arrived = s.Now(); d.Receive(p) })
			}))
		d.SetAcker(0, 40, func(ap *packet.Packet) { s.After(0.005, func() { snd.OnAck(ap) }) })
		snd.Start()
		return stepUntil(s, &count, n)
	})
	put("source.tcp_ns_per_segment", tcp.ns)
	put("source.tcp_allocs_per_segment", tcp.allocs)

	// --- buffer ---
	th, err := table1Thresholds()
	if err != nil {
		return nil, err
	}
	const mb = 1 << 20
	put("buffer.none_admit_release_ns", admitRelease(buffer.NewTailDrop(mb, 9)).ns)
	put("buffer.threshold_admit_release_ns", admitRelease(buffer.NewFixedThreshold(mb, th)).ns)
	put("buffer.sharing_admit_release_ns", admitRelease(buffer.NewSharing(mb, th, units.KiloBytes(200))).ns)
	put("buffer.red_admit_release_ns", admitRelease(buffer.NewRED(mb, 9, units.KiloBytes(250), units.KiloBytes(750), 0.1, sim.NewRand(seed))).ns)

	// --- sched ---
	put("sched.fifo_enq_deq_ns", batches(probeIters, func(n int) time.Duration {
		f := sched.NewFIFO()
		p := &packet.Packet{Flow: 0, Size: 500}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f.Enqueue(p)
			if f.Len() > 64 {
				f.Dequeue()
			}
		}
		return time.Since(t0)
	}).ns)
	put("sched.wfq_enq_deq_ns_1k", batches(probeIters, func(n int) time.Duration {
		const flows = 1000
		weights := make([]units.Rate, flows)
		pkts := make([]*packet.Packet, flows)
		for i := range weights {
			weights[i] = units.Mbps
			pkts[i] = &packet.Packet{Flow: i, Size: 500}
		}
		now := 0.0
		w := sched.NewWFQ(units.MbitsPerSecond(48), func() float64 { return now }, weights)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			w.Enqueue(pkts[i%flows])
			now += 1e-6
			if w.Len() > flows {
				w.Dequeue()
			}
		}
		return time.Since(t0)
	}).ns)
	put("sched.link_ns_per_pkt", batches(probeIters, func(n int) time.Duration {
		// Each departure hands the link its next packet, so one
		// iteration is Receive → admit → enqueue → transmit event →
		// dequeue → release → OnDepart with nothing else on the kernel.
		s := sim.New()
		l := sched.NewLink(s, units.MbitsPerSecond(48), sched.NewFIFO(), buffer.NewTailDrop(mb, 1), nil)
		count := 0
		p := &packet.Packet{Flow: 0, Size: 500}
		l.OnDepart = func(*packet.Packet) {
			count++
			if count < n {
				l.Receive(p)
			}
		}
		l.Receive(p)
		return stepUntil(s, &count, n)
	}).ns)

	// --- scheme ---
	put("scheme.parse_build_us_1k", batches(200, func(n int) time.Duration {
		specs := make([]packet.FlowSpec, 1000)
		for i := range specs {
			specs[i] = packet.FlowSpec{PeakRate: units.Mbps, TokenRate: 40_000, BucketSize: 3000}
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sc, err := scheme.Parse("fifo+threshold")
			if err != nil {
				panic(err) // a registry spec this repository ships
			}
			if _, _, err := sc.Build(scheme.Config{Specs: specs, LinkRate: units.MbitsPerSecond(48), Buffer: 4 * mb, Now: func() float64 { return 0 }}); err != nil {
				panic(err)
			}
		}
		return time.Since(t0)
	}).ns/1e3)

	// --- network ---
	delivery := func(closed bool) probeResult {
		return batches(probeIters, func(n int) time.Duration {
			s := sim.New()
			d := network.NewDeliveryLight(s, 1)
			if closed {
				d.SetAcker(0, 40, func(*packet.Packet) {})
			}
			pkts := make([]packet.Packet, n)
			for i := range pkts {
				pkts[i] = packet.Packet{Flow: 0, Size: 1500, Seq: uint64(i)}
			}
			t0 := time.Now()
			for i := range pkts {
				d.Receive(&pkts[i])
			}
			return time.Since(t0)
		})
	}
	open := delivery(false)
	put("network.delivery_ns_per_pkt", open.ns)
	put("network.delivery_allocs_per_pkt", open.allocs)
	put("network.delivery_tcp_ns_per_pkt", delivery(true).ns)

	// --- topology ---
	var topo *topology.Topology
	put("topology.generate_s", batches(1, func(int) time.Duration {
		t0 := time.Now()
		topo, err = topology.Generate(fmt.Sprintf(probeTopologyFmt, seed))
		return time.Since(t0)
	}).ns/1e9)
	if err != nil {
		return nil, err
	}
	topoOpts := func(d float64) topology.Options {
		return topology.Options{Duration: d, Seed: seed, Shards: 1, SkipLinkFlows: true}
	}
	put("topology.engine_build_s", batches(1, func(int) time.Duration {
		t0 := time.Now()
		_, err = topology.Run(context.Background(), topo, topoOpts(minHorizon))
		return time.Since(t0)
	}).ns/1e9)
	if err != nil {
		return nil, err
	}
	res, err := topology.Run(context.Background(), topo, topoOpts(probeTopologySim))
	if err != nil {
		return nil, err
	}
	put("topology.verify_s", batches(1, func(int) time.Duration {
		t0 := time.Now()
		topology.Verify(topo, &res)
		return time.Since(t0)
	}).ns/1e9)

	// --- construction shares ---
	put("experiment.run_build_s", batches(1, func(int) time.Duration {
		t0 := time.Now()
		_, err = experiment.Run(context.Background(), experiment.NewOptions(
			experiment.WithFlows(experiment.Table1Flows()), experiment.WithSchemeSpec("fifo+threshold"),
			experiment.WithBuffer(units.MegaBytes(1)), experiment.WithDuration(minHorizon), experiment.WithSeed(seed)))
		return time.Since(t0)
	}).ns/1e9)
	if err != nil {
		return nil, err
	}
	put("sizing.cell_build_s", batches(1, func(int) time.Duration {
		t0 := time.Now()
		_, err = sizing.Sweep(context.Background(), sizing.Config{
			Cells:    []sizing.CellSpec{{Flows: 10000, Rule: sizing.RuleSqrt, Scheme: "fifo+threshold"}},
			Duration: minHorizon, Seed: seed, Workers: 1})
		return time.Since(t0)
	}).ns/1e9)
	if err != nil {
		return nil, err
	}

	// --- core ---
	if err := coreProbes(put); err != nil {
		return nil, err
	}
	// --- qosd, in process ---
	return m, qosdProbes(put, topo)
}

// probeSpec is an integer-valued contract, so admit/release cycles leave
// the per-link sums exactly where they started.
var probeSpec = packet.FlowSpec{PeakRate: 400_000, TokenRate: 100_000, BucketSize: 10_000}

func coreProbes(put func(string, float64)) error {
	links := make([]core.LinkConfig, 8)
	for i := range links {
		links[i] = core.LinkConfig{Discipline: core.DisciplineFIFO, Rate: units.MbitsPerSecond(100), Buffer: 4 << 20}
	}
	adm := core.NewShardedAdmitter(links)
	// A standing population, so Check and Admit fold over a real aggregate.
	for i := 0; i < 50; i++ {
		for li := range links {
			if r := adm.Link(li).Admit(probeSpec); r != core.Accepted {
				return fmt.Errorf("core probe: standing flow refused: %v", r)
			}
		}
	}
	put("core.check_ns", batches(probeIters, func(n int) time.Duration {
		l := adm.Link(0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			l.Check(probeSpec)
		}
		return time.Since(t0)
	}).ns)
	cycle := func(a *core.ShardedAdmitter, route []int, n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a.AdmitRoute(route, probeSpec)
			a.ReleaseRoute(route, probeSpec)
		}
		return time.Since(t0)
	}
	put("core.admit_release_ns_1link", batches(probeIters, func(n int) time.Duration { return cycle(adm, []int{0}, n) }).ns)
	put("core.admit_release_ns_3link", batches(probeIters, func(n int) time.Duration { return cycle(adm, []int{0, 1, 2}, n) }).ns)
	put("core.admit_release_contended_ns", batches(probeIters, func(n int) time.Duration {
		// Two goroutines whose 3-link routes share link 2: per
		// operation wall time when the shard lock is fought over.
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, route := range [][]int{{0, 1, 2}, {2, 3, 4}} {
			wg.Add(1)
			go func(route []int) {
				defer wg.Done()
				cycle(adm, route, n/2)
			}(route)
		}
		wg.Wait()
		return time.Since(t0)
	}).ns)
	put("core.reroute_ns", batches(probeIters, func(n int) time.Duration {
		a, b := []int{0, 1, 2}, []int{2, 3, 4}
		adm.AdmitRoute(a, probeSpec)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			adm.Reroute(a, b, probeSpec)
			a, b = b, a
		}
		took := time.Since(t0)
		adm.ReleaseRoute(a, probeSpec)
		return took
	}).ns)
	return nil
}

// memWriter is the in-memory http.ResponseWriter of the handler probes.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) reset()                      { w.code = 200; w.body.Reset(); clear(w.hdr) }
func newMemWriter() *memWriter                   { return &memWriter{hdr: http.Header{}, code: 200} }

// serve sends one in-memory request through h and returns the status.
func serve(h http.Handler, w *memWriter, path string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	w.reset()
	h.ServeHTTP(w, req)
	return w.code, nil
}

func qosdProbes(put func(string, float64), topo *topology.Topology) error {
	srv, err := qosd.New(topo, nil)
	if err != nil {
		return err
	}
	route := []string{topo.Links[0].Name, topo.Links[1].Name}
	var probeErr error
	const iters = 20_000
	put("qosd.join_leave_direct_ns", batches(iters, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if d, err := srv.Join("probe", route, probeSpec); err != nil || !d.Admitted {
				probeErr = fmt.Errorf("qosd probe: direct join: %v %+v", err, d)
			}
			if err := srv.Leave("probe"); err != nil {
				probeErr = err
			}
		}
		return time.Since(t0)
	}).ns)

	h, w := srv.Handler(), newMemWriter()
	join := encodeSingle(op{kind: opJoin, flow: "probe", links: route, spec: probeSpec})
	leave := encodeSingle(op{kind: opLeave, flow: "probe"})
	put("qosd.handler_join_ns", batches(iters, func(n int) time.Duration {
		var took time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			code, err := serve(h, w, join.path, join.body)
			took += time.Since(t0)
			if err != nil || code != 200 {
				probeErr = fmt.Errorf("qosd probe: handler join: code %d, %v", code, err)
			}
			if code, err := serve(h, w, leave.path, leave.body); err != nil || code != 200 {
				probeErr = fmt.Errorf("qosd probe: handler leave: code %d, %v", code, err)
			}
		}
		return took
	}).ns)

	ops := make([]op, 0, batchSize)
	for i := 0; i < batchSize/2; i++ {
		ops = append(ops, op{kind: opJoin, flow: "b" + strconv.Itoa(i), links: route, spec: probeSpec})
	}
	for i := 0; i < batchSize/2; i++ {
		ops = append(ops, op{kind: opLeave, flow: "b" + strconv.Itoa(i)})
	}
	batch := encodeBatch(ops)
	put("qosd.handler_batch_ns_per_op", batches(iters/batchSize, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if code, err := serve(h, w, batch.path, batch.body); err != nil || code != 200 {
				probeErr = fmt.Errorf("qosd probe: handler batch: code %d, %v", code, err)
			}
		}
		return time.Since(t0)
	}).ns/batchSize)
	return probeErr
}

// ledgerKeys names, for one workload, the probe that prices each layer.
type ledgerKeys struct{ kernel, source, manager, sched, delivery string }

// explainedFrac is the share of a workload's measured run_s that its
// exact counts times the probes' unit costs account for (formula and
// reading in bench/README.md). Probes that embed a kernel event or the
// FIFO and tail-drop manager have those parts subtracted, so no cost is
// counted twice; what remains unexplained is what in-program tracing
// must find.
func explainedFrac(n simCounts, k ledgerKeys, p map[string]float64, runS float64) float64 {
	if runS <= 0 || k.kernel == "" {
		return 0
	}
	event := p["sim.schedule_dispatch_ns"]
	linkSelf := max(0, p["sched.link_ns_per_pkt"]-event-p["sched.fifo_enq_deq_ns"]-p["buffer.none_admit_release_ns"])
	ns := n.events*p[k.kernel] +
		n.emitted*max(0, p[k.source]-event) +
		n.shaped*p["source.shaper_ns_per_pkt"] +
		(n.admits+n.drops)*p[k.manager] +
		n.served*(p[k.sched]+linkSelf) +
		n.delivered*p[k.delivery]
	return ns * 1e-9 / runS
}
