package network

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// mixedResult summarizes one mixed-scheme path run for the determinism
// comparison: delivered volume and packet counts per flow, plus per-hop
// drop and forward counts.
type mixedResult struct {
	Bytes     []units.Bytes
	Packets   []int64
	Drops     []int64
	Forwarded []int64
}

// specRouter builds one hop from a scheme-registry spec with the exact
// builders the experiment layer uses, so a path can mix schemes per hop.
func specRouter(t *testing.T, s *sim.Simulator, name, spec string, cfg scheme.Config,
	col *stats.Collector, prop float64) *Router {
	t.Helper()
	cfg.Now = s.Now
	mgr, scheduler, err := scheme.MustParse(spec).Build(cfg)
	if err != nil {
		t.Fatalf("router %s: %v", name, err)
	}
	return NewRouter(s, name, cfg.LinkRate, scheduler, mgr, col, prop)
}

// runMixedPath drives three shaped on/off flows through a two-hop path
// whose hops use different registry specs — fixed thresholds at hop 1,
// WFQ with headroom sharing at hop 2 — and returns the end-to-end
// delivery statistics.
func runMixedPath(t *testing.T, seed int64) mixedResult {
	t.Helper()
	s := sim.New()
	linkRate := units.MbitsPerSecond(48)
	mk := func(peak, tok, bucketKB float64) packet.FlowSpec {
		return packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(peak),
			TokenRate:  units.MbitsPerSecond(tok),
			BucketSize: units.KiloBytes(bucketKB),
		}
	}
	specs := []packet.FlowSpec{mk(16, 2, 50), mk(40, 8, 100), mk(16, 4, 50)}
	cfg := scheme.Config{
		Specs:    specs,
		LinkRate: linkRate,
		Buffer:   units.KiloBytes(500),
		Headroom: units.KiloBytes(100),
		Seed:     seed,
	}
	r1 := specRouter(t, s, "hop1", "fifo+threshold", cfg, stats.NewCollector(len(specs), 0), 0.001)
	r2 := specRouter(t, s, "hop2", "wfq+sharing", cfg, stats.NewCollector(len(specs), 0), 0)
	path := NewPath(s, []*Router{r1, r2}, len(specs))

	for i, spec := range specs {
		rng := sim.NewRand(sim.DeriveSeed(seed, i))
		sh := source.NewShaper(s, spec, path.Head())
		src := source.NewOnOff(s, rng, source.OnOffConfig{
			Flow:       i,
			PacketSize: 500,
			PeakRate:   spec.PeakRate,
			AvgRate:    spec.TokenRate,
			MeanBurst:  spec.BucketSize,
		}, sh)
		src.Start()
	}
	s.RunUntil(5)

	res := mixedResult{
		Bytes:   make([]units.Bytes, len(specs)),
		Packets: make([]int64, len(specs)),
	}
	for i := range specs {
		res.Bytes[i] = path.Delivery.Bytes(i)
		res.Packets[i] = path.Delivery.Packets(i)
	}
	for _, r := range path.Routers {
		var drops int64
		for i := range specs {
			drops += r.Collector().Flow(i).Dropped.Total().Packets
		}
		res.Drops = append(res.Drops, drops)
	}
	return res
}

// TestMixedSchemePathDeterministicAcrossSeeds: a path mixing two
// different registry specs per hop delivers sane end-to-end statistics,
// and rebuilding the identical scenario from its spec strings is
// bit-deterministic for every seed.
func TestMixedSchemePathDeterministicAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := runMixedPath(t, seed)
		b := runMixedPath(t, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: identical mixed-scheme runs diverged:\n%+v\n%+v", seed, a, b)
		}
		var total units.Bytes
		for i, bytes := range a.Bytes {
			if bytes <= 0 || a.Packets[i] <= 0 {
				t.Errorf("seed %d: flow %d delivered nothing end-to-end", seed, i)
			}
			total += bytes
		}
		// Shaped token rates sum to 14 Mb/s — delivery must stay inside
		// the link capacity but carry a meaningful share of the offer.
		if got := total.Bits() / 5; got > 48e6 {
			t.Errorf("seed %d: delivered %v b/s above the 48 Mb/s link", seed, got)
		} else if got < 1e6 {
			t.Errorf("seed %d: delivered only %v b/s end-to-end", seed, got)
		}
	}
}

// runThreeHopMixedPath drives the three shaped flows of runMixedPath
// through a three-hop path mixing three different registry specs, and
// returns the end-to-end delivery counters plus per-hop forward counts.
func runThreeHopMixedPath(t *testing.T, seed int64) mixedResult {
	t.Helper()
	s := sim.New()
	mk := func(peak, tok, bucketKB float64) packet.FlowSpec {
		return packet.FlowSpec{
			PeakRate:   units.MbitsPerSecond(peak),
			TokenRate:  units.MbitsPerSecond(tok),
			BucketSize: units.KiloBytes(bucketKB),
		}
	}
	specs := []packet.FlowSpec{mk(16, 2, 50), mk(40, 8, 100), mk(16, 4, 50)}
	cfg := scheme.Config{
		Specs:    specs,
		LinkRate: units.MbitsPerSecond(48),
		Buffer:   units.KiloBytes(500),
		Headroom: units.KiloBytes(100),
		Seed:     seed,
	}
	var routers []*Router
	for i, spec := range []string{"fifo+threshold", "wfq+sharing", "drr+dynthresh?alpha=2"} {
		routers = append(routers, specRouter(t, s, fmt.Sprintf("hop%d", i), spec, cfg,
			stats.NewCollector(len(specs), 0), 0.0005*float64(i)))
	}
	path := NewPath(s, routers, len(specs))
	for i, spec := range specs {
		rng := sim.NewRand(sim.DeriveSeed(seed, i))
		sh := source.NewShaper(s, spec, path.Head())
		src := source.NewOnOff(s, rng, source.OnOffConfig{
			Flow:       i,
			PacketSize: 500,
			PeakRate:   spec.PeakRate,
			AvgRate:    spec.TokenRate,
			MeanBurst:  spec.BucketSize,
		}, sh)
		src.Start()
	}
	s.RunUntil(5)

	res := mixedResult{
		Bytes:   make([]units.Bytes, len(specs)),
		Packets: make([]int64, len(specs)),
	}
	for i := range specs {
		res.Bytes[i] = path.Delivery.Bytes(i)
		res.Packets[i] = path.Delivery.Packets(i)
	}
	for _, r := range path.Routers {
		var drops, fwd int64
		for i := range specs {
			drops += r.Collector().Flow(i).Dropped.Total().Packets
			fwd += r.Forwarded(i)
		}
		res.Drops = append(res.Drops, drops)
		res.Forwarded = append(res.Forwarded, fwd)
	}
	return res
}

// TestThreeHopMixedSchemeDeterministicAcrossWorkers: running the same
// seeds of a three-hop mixed-scheme path on the experiment worker pool
// yields bit-identical Delivery counters for any worker count.
func TestThreeHopMixedSchemeDeterministicAcrossWorkers(t *testing.T) {
	seeds := []int64{2, 13, 29, 31, 47, 53}
	want := make([]mixedResult, len(seeds))
	for i, seed := range seeds {
		want[i] = runThreeHopMixedPath(t, seed)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got := make([]mixedResult, len(seeds))
		err := experiment.ForEachJob(context.Background(), workers, len(seeds), nil, nil, func(i int) error {
			got[i] = runThreeHopMixedPath(t, seeds[i])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results diverged from sequential baseline:\n%+v\n%+v", workers, got, want)
		}
	}
}
