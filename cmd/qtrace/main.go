// Command qtrace runs a single Table 1 scenario and emits time series
// of the simulation's internal state — per-flow buffer occupancy and,
// for the sharing schemes, the holes/headroom pool levels — as CSV.
// It makes the §2 dynamics (a greedy flow pinned at its threshold, a
// conformant flow's occupancy converging from below) and the §3.3 pool
// mechanics directly visible.
//
// The -scheme flag accepts any scheme-registry spec (see -list-schemes);
// the bare manager names "threshold" and "sharing" keep working and mean
// FIFO scheduling, as before.
//
//	qtrace -scheme sharing -buffer 1 -headroom 0.25 > trace.csv
//	qtrace -scheme wfq+sharing > trace.csv
//	qtrace -scheme fifo+red?min=0.2,max=0.8 > trace.csv
//	qtrace -scheme threshold -example1 > example1.csv
//	qtrace -scheme sharing -metrics metrics.csv > trace.csv
//
// With -metrics, the run's counters and gauges (event kernel, buffer
// accepts/drops, scheduler service counts) are additionally sampled on
// the same interval and written as a second CSV time series.
package main

import (
	"flag"
	"fmt"
	"strings"

	"bufqos/internal/buffer"
	"bufqos/internal/cli"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/sched"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/trace"
	"bufqos/internal/units"
)

func main() {
	var (
		schemeF  = flag.String("scheme", "threshold", "scheme-registry spec, e.g. threshold, sharing, wfq+sharing, fifo+red?min=0.2")
		bufferMB = flag.Float64("buffer", 1, "total buffer in MB")
		headMB   = flag.Float64("headroom", 0.25, "sharing headroom in MB")
		duration = flag.Float64("duration", 5, "simulated seconds")
		interval = flag.Float64("interval", 0.005, "sample interval in seconds")
		seed     = flag.Int64("seed", 1, "random seed")
		example1 = flag.Bool("example1", false, "trace the Example 1 scenario (CBR vs feedback-greedy) instead of Table 1")
		metricsF = flag.String("metrics", "", "also sample run metrics every interval and write them as CSV to this file")
		listSch  = flag.Bool("list-schemes", false, "print the scheme registry catalogue and exit")
	)
	flag.Parse()

	if *listSch {
		cli.Stdout("catalogue", scheme.WriteCatalogue)
		return
	}

	bufSize := units.MegaBytes(*bufferMB)
	var reg *metrics.Registry
	if *metricsF != "" {
		reg = metrics.NewRegistry()
	}

	var s *sim.Simulator
	var labels []string
	var probe func() []float64
	if *example1 {
		// Two flows: conformant CBR at 8 Mb/s vs the greedy adversary,
		// on thresholds no spec can express.
		s = sim.New()
		linkRate := experiment.DefaultLinkRate
		rho := units.MbitsPerSecond(8)
		th := core.PeakRateThreshold(rho, linkRate, bufSize)
		mgr := buffer.NewFixedThreshold(bufSize, []units.Bytes{th + 500, bufSize - th - 500})
		link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, nil)
		if reg != nil {
			s.Instrument(reg)
			mgr.Instrument(reg, "buffer")
			link.Instrument(reg, "example1")
		}
		g := source.NewFeedbackGreedy(s, 1, 500, mgr, link)
		link.OnDepart = g.DepartureHook()
		g.Kick()
		src := source.NewCBR(s, 0, 500, rho, link)
		src.Start()
		labels = []string{"q_conformant", "q_greedy", "threshold_conformant"}
		probe = func() []float64 {
			return []float64{
				float64(mgr.Occupancy(0)),
				float64(mgr.Occupancy(1)),
				float64(th),
			}
		}
	} else {
		// The Table 1 run is experiment.Run's own data plane; qtrace
		// only watches it.
		flows := experiment.Table1Flows()
		p, err := experiment.NewPlane(experiment.NewOptions(
			experiment.WithFlows(flows),
			experiment.WithSchemeSpec(*schemeF),
			experiment.WithBuffer(bufSize),
			experiment.WithHeadroom(units.MegaBytes(*headMB)),
			experiment.WithQueues(experiment.Table1QueueOf()),
			experiment.WithSeed(*seed),
			experiment.WithMetrics(reg),
		))
		if err != nil {
			cli.Fatalf("%v\navailable specs: %s\n(see -list-schemes for parameters)",
				err, strings.Join(scheme.Specs(), ", "))
		}
		s = p.Sim
		// Occupancy columns for every flow; the sharing managers (plain
		// and adaptive) additionally expose their holes/headroom pool
		// levels.
		mgr := p.Link.Manager()
		labels = occupancyLabels(len(flows))
		if m, ok := mgr.(*buffer.Sharing); ok {
			labels = append(labels, "holes", "headroom")
			probe = occupancyProbe(mgr, len(flows), func() []float64 {
				return []float64{float64(m.Holes()), float64(m.Headroom())}
			})
		} else {
			probe = occupancyProbe(mgr, len(flows), nil)
		}
	}

	sa := trace.NewSampler(s, *interval, labels, probe)
	sa.Start()
	var msa *trace.Sampler
	if reg != nil {
		msa = trace.NewMetricsSampler(s, *interval, reg, reg.Names())
		msa.Start()
	}
	s.RunUntil(*duration)
	cli.Stdout("csv", sa.WriteCSV)
	if msa != nil {
		if err := cli.WriteFile(*metricsF, msa.WriteCSV); err != nil {
			cli.Fatalf("%v", err)
		}
	}
}

func occupancyLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("q%d", i)
	}
	return labels
}

func occupancyProbe(mgr buffer.Manager, n int, extra func() []float64) func() []float64 {
	return func() []float64 {
		row := make([]float64, 0, n+2)
		for i := 0; i < n; i++ {
			row = append(row, float64(mgr.Occupancy(i)))
		}
		if extra != nil {
			row = append(row, extra()...)
		}
		return row
	}
}
