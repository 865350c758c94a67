package topology

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// TestClassRoundTrip: the per-flow class survives JSON parse → save →
// parse, and Classes() distinguishes "no flow classified" (nil) from an
// explicit map.
func TestClassRoundTrip(t *testing.T) {
	src := `{
		"name": "classy",
		"links": [{"from": "a", "to": "b", "rate_mbps": 10, "buffer_kb": 16, "scheme": "classseg?classes=2"}],
		"flows": [
			{"name": "gold", "route": ["a", "b"], "token_mbps": 2, "bucket_kb": 50, "source": "cbr", "class": 1},
			{"name": "dirt", "route": ["a", "b"], "token_mbps": 2, "bucket_kb": 50, "source": "cbr"}
		]
	}`
	topo, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Flows[0].Class != 1 || topo.Flows[1].Class != 0 {
		t.Fatalf("classes = %d, %d, want 1, 0", topo.Flows[0].Class, topo.Flows[1].Class)
	}
	if got := topo.Classes(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("Classes() = %v, want [1 0]", got)
	}
	var buf bytes.Buffer
	if err := Write(&buf, topo); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if again.Flows[0].Class != 1 || again.Flows[1].Class != 0 {
		t.Errorf("classes lost in round trip: %d, %d", again.Flows[0].Class, again.Flows[1].Class)
	}

	// All-zero classes collapse to nil, so class-aware schemes fall back
	// to their profile-derived classification.
	plain := twoHop(t)
	if got := plain.Classes(); got != nil {
		t.Errorf("unclassified topology: Classes() = %v, want nil", got)
	}
}

func TestValidateRejectsNegativeClass(t *testing.T) {
	topo := twoHop(t)
	topo.Flows[0].Class = -1
	if err := topo.Validate(); err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("negative class: err = %v", err)
	}
}

// TestValidateChecksTheLinkItRuns: a class-aware link is built over the
// flows traversing it, so a class its scheme cannot hold on a flow that
// only uses another link is no error — Validate accepts the scenario
// the engine runs, and both flows deliver.
func TestValidateChecksTheLinkItRuns(t *testing.T) {
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(2)}
	topo := &Topology{
		Name: "class-elsewhere",
		Links: []Link{
			{From: "a", To: "b", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(16), Spec: "classseg?classes=2"},
			{From: "b", To: "c", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(16)},
		},
		Flows: []Flow{
			{Name: "gold", Spec: spec, RouteNodes: []string{"a", "b"}, Source: SourceCBR, Class: 1},
			{Name: "far", Spec: spec, RouteNodes: []string{"b", "c"}, Source: SourceCBR, Class: 3},
		},
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate rejects a scenario the engine runs: %v", err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range res.Flows {
		if fr.Delivered.Packets == 0 || fr.Delivered != fr.Offered {
			t.Errorf("flow %s: delivered %+v of %+v", fr.Name, fr.Delivered, fr.Offered)
		}
	}
}

// TestClassSegLinkProtectsHighClass: on an overloaded classseg link,
// the explicitly higher-class flow keeps (nearly) all its traffic while
// the lower class absorbs the loss — the topology's class assignment
// must reach the link's admission policy and the packets themselves.
func TestClassSegLinkProtectsHighClass(t *testing.T) {
	spec := packet.FlowSpec{
		PeakRate: units.MbitsPerSecond(10), TokenRate: units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(2),
	}
	topo := &Topology{
		Name: "classseg-link",
		Links: []Link{{
			From: "a", To: "b",
			Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(16),
			Spec: "classseg?classes=2",
		}},
		Flows: []Flow{
			{Name: "gold", Spec: spec, RouteNodes: []string{"a", "b"}, Source: SourceCBR,
				AvgRate: units.MbitsPerSecond(8), Class: 1},
			{Name: "dirt", Spec: spec, RouteNodes: []string{"a", "b"}, Source: SourceCBR,
				AvgRate: units.MbitsPerSecond(8)},
		},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gold, dirt := res.Flows[0], res.Flows[1]
	if gold.Offered.Packets == 0 || dirt.Offered.Packets == 0 {
		t.Fatalf("sources idle (rejections %+v): %+v %+v", res.Rejections, gold.Offered, dirt.Offered)
	}
	goldLoss := 1 - float64(gold.Delivered.Packets)/float64(gold.Offered.Packets)
	dirtLoss := 1 - float64(dirt.Delivered.Packets)/float64(dirt.Offered.Packets)
	// 16 Mb/s offered into 10 Mb/s: ~37% aggregate loss, all of which
	// class-segregated pushout should push onto the low class.
	if goldLoss > 0.01 {
		t.Errorf("high-class flow lost %.1f%% of its packets", 100*goldLoss)
	}
	if dirtLoss < 0.2 {
		t.Errorf("low-class flow lost only %.1f%%, preemption not biting", 100*dirtLoss)
	}
}
