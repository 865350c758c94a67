package buffer_test

import (
	"testing"

	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

// TestCombinedSchemesBalanceTheirBooks runs every combined
// queue/manager on a short Table 1 run with a registry. It lives in
// package buffer_test because the link comes from internal/sched,
// which imports this package. Every accepted packet departed, was
// pushed out (sched.pushouts, which buffer.drops does not count) or is
// still queued or in service, and buffer.drops counts exactly the
// arrivals that were rejected.
func TestCombinedSchemesBalanceTheirBooks(t *testing.T) {
	for _, spec := range []string{"pushout", "cgreedy", "classseg", "lqf", "semigreedy"} {
		reg := metrics.NewRegistry()
		p, err := experiment.NewPlane(experiment.NewOptions(
			experiment.WithFlows(experiment.Table1Flows()),
			experiment.WithSchemeSpec(spec),
			experiment.WithBuffer(units.KiloBytes(200)),
			experiment.WithSeed(1),
			experiment.WithMetrics(reg),
		))
		if err != nil {
			t.Fatal(err)
		}
		var lost int64 // rejected arrivals and pushed-out victims
		p.Link.OnDrop = func(pk *packet.Packet) {
			lost++
			p.Sim.Release(pk)
		}
		p.Sim.RunUntil(2)

		label := scheme.MustParse(spec).String()
		count := func(name string) int64 {
			v, _ := reg.Value(name)
			return int64(v)
		}
		accepts, drops := count("buffer.accepts"), count("buffer.drops")
		departed, pushouts := count("sched.served_packets."+label), count("sched.pushouts."+label)
		queued := int64(p.Link.Scheduler().Len())
		if p.Link.Busy() {
			queued++
		}
		if accepts == 0 || drops == 0 {
			t.Errorf("%s: %d accepts, %d drops: the run did not fill the buffer", spec, accepts, drops)
		}
		if accepts != departed+pushouts+queued {
			t.Errorf("%s: buffer.accepts %d != departed %d + pushed out %d + queued %d",
				spec, accepts, departed, pushouts, queued)
		}
		if drops != lost-pushouts {
			t.Errorf("%s: buffer.drops %d, but %d arrivals were rejected", spec, drops, lost-pushouts)
		}
	}
}
