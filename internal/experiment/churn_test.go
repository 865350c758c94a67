package experiment

import (
	"context"
	"strings"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

func churnTemplates() []FlowConfig {
	return []FlowConfig{
		{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(16),
				TokenRate:  units.MbitsPerSecond(2),
				BucketSize: units.KiloBytes(30),
			},
			AvgRate:     units.MbitsPerSecond(2),
			MeanBurst:   units.KiloBytes(30),
			Conformance: Conformant,
		},
		{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(24),
				TokenRate:  units.MbitsPerSecond(6),
				BucketSize: units.KiloBytes(60),
			},
			AvgRate:     units.MbitsPerSecond(6),
			MeanBurst:   units.KiloBytes(60),
			Conformance: Conformant,
		},
	}
}

func baseChurn() ChurnConfig {
	return ChurnConfig{
		Templates:   churnTemplates(),
		ArrivalRate: 2,
		MeanHold:    5,
		MaxFlows:    32,
		Buffer:      units.MegaBytes(2),
		Duration:    40,
		Warmup:      4,
		Seed:        1,
	}
}

func TestChurnBasicRun(t *testing.T) {
	res, err := RunChurn(context.Background(), baseChurn())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 40 {
		t.Fatalf("only %d requests in 40s at rate 2/s", res.Requests)
	}
	if res.Admitted+res.Blocked != res.Requests {
		t.Errorf("accounting: %d + %d != %d", res.Admitted, res.Blocked, res.Requests)
	}
	if res.BlockedBandwidth+res.BlockedBuffer != res.Blocked {
		t.Errorf("block split: %d + %d != %d", res.BlockedBandwidth, res.BlockedBuffer, res.Blocked)
	}
	if res.MeanActive <= 0 {
		t.Error("no flows ever active")
	}
	if res.Utilization <= 0 {
		t.Error("no traffic delivered")
	}
}

func TestChurnGuaranteesSurvivePopulationChanges(t *testing.T) {
	// The point of the experiment: every admitted (shaped) flow keeps
	// its guarantee through arrivals and departures of its neighbours.
	res, err := RunChurn(context.Background(), baseChurn())
	if err != nil {
		t.Fatal(err)
	}
	if res.ConformantLoss > 1e-4 {
		t.Errorf("conformant loss %v under churn, want ≈ 0", res.ConformantLoss)
	}
}

func TestChurnBlockingGrowsWithLoad(t *testing.T) {
	light := baseChurn()
	light.ArrivalRate = 0.5
	lres, err := RunChurn(context.Background(), light)
	if err != nil {
		t.Fatal(err)
	}
	heavy := baseChurn()
	heavy.ArrivalRate = 10
	heavy.MeanHold = 8
	hres, err := RunChurn(context.Background(), heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hres.BlockingProbability <= lres.BlockingProbability {
		t.Errorf("blocking did not grow with load: light %v, heavy %v",
			lres.BlockingProbability, hres.BlockingProbability)
	}
	if hres.Blocked == 0 {
		t.Error("heavy churn load never blocked — admission control inert")
	}
}

func TestChurnDeterministic(t *testing.T) {
	a, err := RunChurn(context.Background(), baseChurn())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(context.Background(), baseChurn())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestChurnValidation(t *testing.T) {
	slots := func(c ChurnConfig) ChurnConfig {
		c.Templates, c.ArrivalRate, c.MeanHold, c.MaxFlows = churnTemplates(), 1, 1, 4
		return c
	}
	bad := []struct {
		cfg  ChurnConfig
		want string // a word the error must name; "" for any error
	}{
		{ChurnConfig{}, ""},
		{ChurnConfig{Templates: churnTemplates()}, ""},
		{ChurnConfig{Templates: churnTemplates(), ArrivalRate: 1}, ""},
		{ChurnConfig{Templates: churnTemplates(), ArrivalRate: 1, MeanHold: 1}, ""},
		{slots(ChurnConfig{}), "Buffer"},
		{slots(ChurnConfig{Buffer: -5}), "Buffer"},
		{slots(ChurnConfig{Buffer: units.MegaBytes(1), LinkRate: -1}), "LinkRate"},
	}
	for i, c := range bad {
		_, err := RunChurn(context.Background(), c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("config %d (%+v): error %v, want one naming %q", i, c.cfg, err, c.want)
		}
	}
}

func TestChurnUtilizationTracksCarriedLoad(t *testing.T) {
	// Erlang sanity: carried load ≈ mean active flows × mean per-flow
	// rate; utilization should approximate that over the link rate.
	res, err := RunChurn(context.Background(), baseChurn())
	if err != nil {
		t.Fatal(err)
	}
	meanRate := (2e6 + 6e6) / 2
	expected := res.MeanActive * meanRate / 48e6
	if expected > 1 {
		expected = 1
	}
	if res.Utilization < expected*0.5 || res.Utilization > expected*1.5+0.05 {
		t.Errorf("utilization %v vs Erlang estimate %v", res.Utilization, expected)
	}
}

// TestChurnSlotWaitsForItsShaperToDrain: a slot whose flow has left is
// not reused while that flow's shaper still holds packets, even when the
// link's buffer holds none of them: the shaper keeps releasing its
// backlog under the slot's flow id, and a new occupant would inherit
// those packets, its threshold and its statistics.
func TestChurnSlotWaitsForItsShaperToDrain(t *testing.T) {
	s := sim.New()
	mgr := buffer.NewFixedThreshold(units.MegaBytes(1), make([]units.Bytes, 2))
	sh := source.NewShaper(s, packet.FlowSpec{TokenRate: units.Mbps, BucketSize: 500}, source.NewRecorder(s))
	for i := 0; i < 3; i++ {
		p := s.NewPacket()
		p.Size = 500
		sh.Receive(p) // the first passes, the others wait for tokens
	}
	active := make([]bool, 2) // both flows have left
	shapers := []*source.Shaper{sh, nil}
	if sh.Backlog() == 0 || mgr.Occupancy(0) != 0 {
		t.Fatalf("set-up: shaper backlog %d, buffer occupancy %v", sh.Backlog(), mgr.Occupancy(0))
	}
	if got := freeSlot(active, shapers, mgr); got != 1 {
		t.Errorf("with slot 0's shaper backlogged, freeSlot = %d, want 1", got)
	}
	s.Run(0)
	if got := freeSlot(active, shapers, mgr); got != 0 {
		t.Errorf("with slot 0's shaper drained, freeSlot = %d, want 0", got)
	}
}
