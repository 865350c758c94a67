package topology

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// twoHop builds a minimal validated two-hop scenario used across tests:
// flows [0] conformant greedy and [1] aggressive on-off, both routed
// a -> b -> c.
func twoHop(t *testing.T) *Topology {
	t.Helper()
	topo := &Topology{
		Name: "twohop",
		Links: []Link{
			{From: "a", To: "b", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(2), Spec: "fifo+threshold"},
			{From: "b", To: "c", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1), Spec: "wfq+sharing", Headroom: units.KiloBytes(200)},
		},
		Flows: []Flow{
			{
				Name: "conf",
				Spec: packet.FlowSpec{
					PeakRate: units.MbitsPerSecond(16), TokenRate: units.MbitsPerSecond(4),
					BucketSize: units.KiloBytes(50),
				},
				RouteNodes: []string{"a", "b", "c"},
				Source:     SourceGreedy,
				Shaped:     true,
			},
			{
				Name: "agg",
				Spec: packet.FlowSpec{
					PeakRate: units.MbitsPerSecond(40), TokenRate: units.MbitsPerSecond(2),
					BucketSize: units.KiloBytes(50),
				},
				RouteNodes: []string{"a", "b", "c"},
				AvgRate:    units.MbitsPerSecond(10),
				MeanBurst:  units.KiloBytes(250),
			},
		},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestValidateResolvesRoutesAndDefaults(t *testing.T) {
	topo := twoHop(t)
	if topo.Links[0].Name != "a->b" || topo.Links[1].Name != "b->c" {
		t.Errorf("default link names wrong: %q %q", topo.Links[0].Name, topo.Links[1].Name)
	}
	if !reflect.DeepEqual(topo.Flows[0].Route, []int{0, 1}) {
		t.Errorf("route resolved to %v, want [0 1]", topo.Flows[0].Route)
	}
	f := &topo.Flows[1]
	if f.Source != SourceOnOff || f.PacketSize != 500 {
		t.Errorf("defaults not applied: source=%q pkt=%v", f.Source, f.PacketSize)
	}
	if topo.Flows[0].AvgRate != topo.Flows[0].Spec.TokenRate {
		t.Errorf("AvgRate default = %v, want ρ", topo.Flows[0].AvgRate)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() *Topology {
		return &Topology{
			Name:  "bad",
			Links: []Link{{From: "a", To: "b", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1)}},
			Flows: []Flow{{
				Name:       "f",
				Spec:       packet.FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(50)},
				RouteNodes: []string{"a", "b"},
				Source:     SourceCBR,
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Topology)
		want   string
	}{
		{"unknown scheme", func(t *Topology) { t.Links[0].Spec = "bogus+none" }, "bogus"},
		{"NaN threshold scale", func(t *Topology) { t.Links[0].Spec = "fifo+threshold?scale=NaN" }, "parameter scale=NaN"},
		{"negative headroom", func(t *Topology) { t.Links[0].Spec = "wfq+sharing?headroom=-1" }, "parameter headroom=-1"},
		{"infinite alpha", func(t *Topology) { t.Links[0].Spec = "fifo+dynthresh?alpha=Inf" }, "parameter alpha=+Inf"},
		{"huge class count", func(t *Topology) { t.Links[0].Spec = "rpq+threshold?classes=1e9" }, "parameter classes=1e+09"},
		{"negative prop", func(t *Topology) { t.Links[0].PropDelay = -1 }, "propagation"},
		{"zero rate", func(t *Topology) { t.Links[0].Rate = 0 }, "rate"},
		{"self loop", func(t *Topology) { t.Links[0].To = "a" }, "self-loop"},
		{"headroom too big", func(t *Topology) { t.Links[0].Headroom = units.MegaBytes(2) }, "headroom"},
		{"unroutable", func(t *Topology) { t.Flows[0].RouteNodes = []string{"a", "z"} }, "no link a->z"},
		{"short route", func(t *Topology) { t.Flows[0].RouteNodes = []string{"a"} }, "two nodes"},
		{"bad flow spec", func(t *Topology) { t.Flows[0].Spec.TokenRate = -1 }, "token rate"},
		{"greedy unshaped", func(t *Topology) { t.Flows[0].Source = SourceGreedy }, "shaped"},
		{"bad source kind", func(t *Topology) { t.Flows[0].Source = "warp" }, "source kind"},
		{"onoff without peak", func(t *Topology) { t.Flows[0].Source = SourceOnOff }, "peak"},
		{"unknown event flow", func(t *Topology) {
			t.Events = []Event{{At: 1, Kind: EventJoin, Flow: "ghost"}}
		}, "unknown flow"},
		{"unknown event link", func(t *Topology) {
			t.Events = []Event{{At: 1, Kind: EventFail, Link: "ghost"}}
		}, "unknown link"},
		{"leave before join", func(t *Topology) {
			t.Events = []Event{
				{At: 1, Kind: EventLeave, Flow: "f"},
				{At: 2, Kind: EventJoin, Flow: "f"},
			}
		}, "before its join"},
		{"double join", func(t *Topology) {
			t.Events = []Event{
				{At: 1, Kind: EventJoin, Flow: "f"},
				{At: 2, Kind: EventJoin, Flow: "f"},
			}
		}, "joins twice"},
		{"bad rate event", func(t *Topology) {
			t.Events = []Event{{At: 1, Kind: EventRate, Link: "a->b", Rate: 0}}
		}, "non-positive rate"},
		{"hybrid without queues", func(t *Topology) { t.Links[0].Spec = "hybrid+sharing" }, "hybrid"},
		{"route repeats a link", func(t *Topology) {
			t.Links = append(t.Links, Link{From: "b", To: "a", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1)})
			t.Flows[0].RouteNodes = []string{"a", "b", "a", "b"}
		}, "link a->b repeated in route"},
		{"class out of range on its link", func(t *Topology) {
			t.Links[0].Spec = "classseg?classes=2"
			t.Flows[0].Class = 3
		}, "class 3 outside"},
	}
	for _, tc := range cases {
		topo := base()
		tc.mutate(topo)
		err := topo.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// A failed Validate keeps no route index, so the scenario
		// cannot run half-checked.
		if _, err := Run(context.Background(), topo, Options{Duration: 1}); err == nil || !strings.Contains(err.Error(), "not validated") {
			t.Errorf("%s: Run after a failed Validate: err = %v, want not validated", tc.name, err)
		}
	}
}

// TestParseRejectsUnknownFields: a typo, a paper-unit field name of
// the retired second encoding, a derived field, and a suffixed time are
// each refused with an error naming the field.
func TestParseRejectsUnknownFields(t *testing.T) {
	const valid = `{"name": "x",
	  "links": [{"from": "a", "to": "b", "rate": "48Mbit/s", "buffer": "100KB", "headroom": "10KB", "prop_delay": 0.001}],
	  "flows": [{"name": "f", "route": ["a", "b"], "spec": {"peak": "3Mbit/s", "token": "1Mbit/s", "bucket": "10KB"},
	             "avg": "1Mbit/s", "burst": "10KB", "packet": "500B"}],
	  "events": [{"at": 1, "type": "rate", "link": "a->b", "rate": "24Mbit/s"}]}`
	if _, err := Parse(strings.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ field, old, new string }{
		{"rate_mbsp", `"rate": "48Mbit/s"`, `"rate_mbsp": 48`},
		{"rate_mbps", `"rate": "48Mbit/s"`, `"rate_mbps": 48`},
		{"buffer_kb", `"buffer": "100KB"`, `"buffer_kb": 100`},
		{"headroom_kb", `"headroom": "10KB"`, `"headroom_kb": 10`},
		{"prop_delay_ms", `"prop_delay": 0.001`, `"prop_delay_ms": 1`},
		{"peak_mbps", `"spec": {"peak": "3Mbit/s", `, `"peak_mbps": 3, "spec": {`},
		{"token_mbps", `"spec": {"peak": "3Mbit/s", "token": "1Mbit/s", `, `"token_mbps": 1, "spec": {"peak": "3Mbit/s", `},
		{"bucket_kb", `"spec": {"peak": "3Mbit/s", "token": "1Mbit/s", "bucket": "10KB"}`, `"bucket_kb": 10, "spec": {"peak": "3Mbit/s", "token": "1Mbit/s"}`},
		{"avg_mbps", `"avg": "1Mbit/s"`, `"avg_mbps": 1`},
		{"burst_kb", `"burst": "10KB"`, `"burst_kb": 10`},
		{"packet_bytes", `"packet": "500B"`, `"packet_bytes": 500`},
		{"rate_mbps", `"rate": "24Mbit/s"`, `"rate_mbps": 24`},
		{"ID", `{"name": "f", `, `{"name": "f", "ID": 0, `},
		{"route", `"route": ["a", "b"]`, `"route": ["a", "b"], "Route": [0]`},
		{"at", `"at": 1`, `"at": "2500ms"`},
	}
	for _, c := range cases {
		if !strings.Contains(valid, c.old) {
			t.Fatalf("%s: %q not in the valid scenario", c.field, c.old)
		}
		doc := strings.Replace(valid, c.old, c.new, 1)
		if _, err := Parse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want a refusal naming the field", c.field, err)
		}
	}
}

// TestParseRejectsTrailingData: a shipped scenario followed by a second
// value or by garbage is refused, not read up to its first value.
func TestParseRejectsTrailingData(t *testing.T) {
	data, err := os.ReadFile("../../topologies/tandem3.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(bytes.NewReader(data)); err != nil {
		t.Fatalf("tandem3.json: %v", err)
	}
	for _, tail := range []string{`{"name":"second"} not json at all`, `{"name":"second"}`, ` x`} {
		if _, err := Parse(bytes.NewReader(append(data, tail...))); err == nil {
			t.Errorf("tandem3.json + %q parsed", tail)
		}
	}
}

// TestRunRejectsNonFiniteDuration: a NaN horizon once passed the
// "non-positive" check and ran forever, as did +Inf; both are errors
// now, at one shard and at several.
func TestRunRejectsNonFiniteDuration(t *testing.T) {
	topo := twoHop(t)
	for _, d := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		for _, shards := range []int{1, 2} {
			_, err := Run(context.Background(), topo, Options{Duration: d, Seed: 1, Shards: shards})
			if err == nil || !strings.Contains(err.Error(), "duration") {
				t.Errorf("Duration %v, %d shards: error %v, want one naming the duration", d, shards, err)
			}
		}
	}
}

func TestRunAdmitsAndDelivers(t *testing.T) {
	topo := twoHop(t)
	res, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for fi, fr := range res.Flows {
		if !fr.Admitted {
			t.Fatalf("flow %d not admitted", fi)
		}
		if fr.Delivered.Packets == 0 || fr.Offered.Packets == 0 {
			t.Errorf("flow %d carried nothing: %+v", fi, fr)
		}
	}
	if len(res.Rejections) != 0 {
		t.Errorf("unexpected rejections: %+v", res.Rejections)
	}
	// The conformant greedy flow must hold its reservation end-to-end.
	for _, a := range Verify(topo, &res) {
		if a.Failed() {
			t.Errorf("%s (%s): %v", a.Name, a.Detail, a.Err)
		}
	}
	// Per-link forwarding diagnostics reach the result.
	if fwd := res.Links[0].Flows[0].Forwarded; fwd == 0 {
		t.Error("first hop forwarded nothing for flow 0")
	}
}

func TestAdmissionRejectionPerLinkReason(t *testing.T) {
	topo := twoHop(t)
	// A flow over-subscribing bandwidth on the (narrower) second link
	// only: ρ = 45 fits nothing alongside the existing 6 Mb/s.
	topo.Flows = append(topo.Flows, Flow{
		Name: "hog",
		Spec: packet.FlowSpec{
			PeakRate: units.MbitsPerSecond(45), TokenRate: units.MbitsPerSecond(45),
			BucketSize: units.KiloBytes(10),
		},
		RouteNodes: []string{"b", "c"},
		Source:     SourceCBR,
	})
	topo.Events = []Event{{At: 1, Kind: EventJoin, Flow: "hog"}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[2].Admitted {
		t.Fatal("45 Mb/s flow admitted on a 48 Mb/s link already carrying 6 Mb/s")
	}
	if len(res.Rejections) != 1 {
		t.Fatalf("rejections = %+v, want exactly one", res.Rejections)
	}
	rej := res.Rejections[0]
	if rej.Link != "b->c" || rej.Reason != core.BandwidthLimited || rej.Flow != "hog" || rej.At != 1 {
		t.Errorf("rejection = %+v, want hog at b->c, bandwidth-limited, t=1", rej)
	}
	if res.Flows[2].Delivered.Packets != 0 || res.Flows[2].Offered.Packets != 0 {
		t.Errorf("rejected flow carried traffic: %+v", res.Flows[2])
	}

	// A σ over-subscription on the WFQ hop is buffer-limited (eq. 6).
	topo2 := twoHop(t)
	topo2.Flows = append(topo2.Flows, Flow{
		Name: "burster",
		Spec: packet.FlowSpec{
			TokenRate:  units.MbitsPerSecond(1),
			BucketSize: units.MegaBytes(2), // > the 1 MB buffer of b->c
		},
		RouteNodes: []string{"b", "c"},
		Source:     SourceCBR,
	})
	if err := topo2.Validate(); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), topo2, Options{Duration: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rejections) != 1 || res2.Rejections[0].Reason != core.BufferLimited {
		t.Errorf("rejections = %+v, want one buffer-limited", res2.Rejections)
	}
}

func TestLeaveReleasesCapacity(t *testing.T) {
	topo := twoHop(t)
	// tenant reserves 30 Mb/s on a->b from the start and leaves at t=2;
	// successor needs that capacity and joins at t=3 (together they
	// would over-subscribe the 48 Mb/s link).
	big := packet.FlowSpec{
		PeakRate: units.MbitsPerSecond(40), TokenRate: units.MbitsPerSecond(30),
		BucketSize: units.KiloBytes(50),
	}
	topo.Flows = append(topo.Flows,
		Flow{
			Name: "tenant", Spec: big,
			RouteNodes: []string{"a", "b"},
			Source:     SourceCBR,
			AvgRate:    units.MbitsPerSecond(10),
		},
		Flow{
			Name: "successor", Spec: big,
			RouteNodes: []string{"a", "b"},
			Source:     SourceCBR,
			AvgRate:    units.MbitsPerSecond(10),
		},
	)
	topo.Events = []Event{
		{At: 2, Kind: EventLeave, Flow: "tenant"},
		{At: 3, Kind: EventJoin, Flow: "successor"},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tenant := res.Flows[2]
	if !tenant.Admitted || !tenant.Left || tenant.LeaveAt != 2 {
		t.Errorf("tenant = %+v, want admitted and left at t=2", tenant)
	}
	if !res.Flows[3].Admitted {
		t.Errorf("successor not admitted after tenant left: %+v", res.Rejections)
	}
	// Without the leave, the successor must be rejected.
	topo.Events = []Event{{At: 3, Kind: EventJoin, Flow: "successor"}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Flows[3].Admitted {
		t.Error("successor admitted alongside tenant: Σρ = 66 Mb/s on a 48 Mb/s link")
	}
}

// TestEventsPastTheHorizonTakeNoEffect: a run honours only the timeline
// up to its duration. An event at exactly the horizon fires (the hog's
// join is refused); a later join leaves its flow neither admitted nor
// rejected, a later leave leaves its flow active to the end, and a
// later failure degrades no flow, so every guarantee is still checked.
func TestEventsPastTheHorizonTakeNoEffect(t *testing.T) {
	topo := twoHop(t)
	cbr := func(name string, rho float64) Flow {
		return Flow{
			Name:       name,
			Spec:       packet.FlowSpec{TokenRate: units.MbitsPerSecond(rho), BucketSize: units.KiloBytes(50)},
			RouteNodes: []string{"a", "b", "c"},
			Source:     SourceCBR,
			Shaped:     true,
		}
	}
	topo.Flows = append(topo.Flows, cbr("visitor", 6), cbr("hog", 40), cbr("late", 4))
	topo.Events = []Event{
		{At: 1, Kind: EventJoin, Flow: "visitor"},
		{At: 3, Kind: EventJoin, Flow: "hog"},
		{At: 4, Kind: EventFail, Link: "b->c"},
		{At: 5, Kind: EventLeave, Flow: "visitor"},
		{At: 6, Kind: EventJoin, Flow: "late"},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	const horizon = 3.0
	res, err := Run(context.Background(), topo, Options{Duration: horizon, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejections) != 1 || res.Rejections[0].Flow != "hog" || res.Rejections[0].At != horizon {
		t.Errorf("rejections %+v, want only hog's, at t=%v", res.Rejections, horizon)
	}
	visitor, late := res.Flows[2], res.Flows[4]
	if !visitor.Admitted || visitor.Left || visitor.LeaveAt != horizon {
		t.Errorf("visitor = %+v, want admitted and active until the horizon", visitor)
	}
	if want := units.Rate(visitor.Delivered.Bytes.Bits() / (horizon - 1)); visitor.Throughput != want {
		t.Errorf("visitor throughput %v, want delivered over its 2 s window, %v", visitor.Throughput, want)
	}
	if late.Admitted || late.JoinAt != 6 || late.Offered.Packets != 0 {
		t.Errorf("late = %+v, want not admitted, declared join at t=6, no traffic", late)
	}
	for _, fr := range res.Flows {
		if fr.Degraded {
			t.Errorf("flow %s degraded by a failure past the horizon", fr.Name)
		}
	}
	for _, a := range Verify(topo, &res) {
		if a.Err != nil {
			t.Errorf("%s %s: %v", a.Name, a.Detail, a.Err)
		}
	}
	var table bytes.Buffer
	if err := WriteFlowTable(&table, topo, []Result{res}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(table.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "hog ") && !strings.Contains(line, "rejected"),
			strings.HasPrefix(line, "late ") && !strings.HasSuffix(line, "not joined"):
			t.Errorf("flow table line %q", line)
		}
	}
}

func TestLinkFailurePartialPathStats(t *testing.T) {
	topo := twoHop(t)
	topo.Events = []Event{
		{At: 1, Kind: EventFail, Link: "b->c"},
		{At: 4, Kind: EventRecover, Link: "b->c"},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for fi, fr := range res.Flows {
		if !fr.Degraded {
			t.Errorf("flow %d crosses the failed link but is not degraded", fi)
		}
		if fr.Delivered.Packets == 0 {
			t.Errorf("flow %d delivered nothing despite recovery", fi)
		}
	}
	// The failed hop kept counting: its drops grew while it was down.
	if res.Links[1].DroppedPackets() == 0 {
		t.Error("3s outage on a loaded link dropped nothing")
	}
	// Degraded flows are exempt from the guarantees.
	for _, a := range Verify(topo, &res) {
		if a.Failed() {
			t.Errorf("degraded run should produce no failures: %s: %v", a.Name, a.Err)
		}
		if a.Name == "zero-conformant-loss" || a.Name == "reserved-throughput" {
			t.Errorf("strict guarantee %s asserted for a degraded flow", a.Name)
		}
	}
}

func TestVerifyFlagsConformantLoss(t *testing.T) {
	// Thresholds at a tenth of Proposition 1's on a slow first hop: the
	// aggressive flow's 40 Mb/s bursts overload the 24 Mb/s link, the
	// conformant flow overruns its shrunken share, and Verify must catch
	// it, since the hop still claims the guarantee. The declared
	// profiles (Σρ = 6 Mb/s, Σσ = 100 KB) still pass admission.
	topo := twoHop(t)
	topo.Links[0].Spec = "fifo+threshold?scale=0.1"
	topo.Links[0].Rate = units.MbitsPerSecond(24)
	topo.Links[0].Buffer = units.KiloBytes(150)
	topo.Flows[1].AvgRate = units.MbitsPerSecond(20)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, a := range Verify(topo, &res) {
		if a.Failed() && a.Name == "zero-conformant-loss" {
			failed++
		}
	}
	if failed == 0 {
		t.Error("a tenth of the threshold under 30 Mb/s aggression produced no violation")
	}
}

// TestVerifyAssertsOnlyWhatThePaperPromises replays qfuzz's campaign
// seed 1, case 239: one wfq+none link whose shaped flows lose
// conformant packets to a CBR aggressor. No buffer management means no
// per-flow promise (Link.Guaranteed), so Verify must assert neither
// zero conformant loss at that hop nor reserved throughput on a route
// through it.
func TestVerifyAssertsOnlyWhatThePaperPromises(t *testing.T) {
	topo, err := Load("testdata/wfq_none_fuzz_case.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 2, Seed: -7761103899341316898})
	if err != nil {
		t.Fatal(err)
	}
	var lost int64
	for _, lf := range res.Links[0].Flows {
		lost += lf.ConformantDropped.Packets
	}
	if lost == 0 {
		t.Fatal("the wfq+none link lost no conformant packet; the scenario no longer tests anything")
	}
	for _, a := range Verify(topo, &res) {
		if a.Failed() {
			t.Errorf("%s (%s): %v", a.Name, a.Detail, a.Err)
		}
		if a.Name == "zero-conformant-loss" || a.Name == "reserved-throughput" {
			t.Errorf("%s asserted for %s on a link that promises nothing", a.Name, a.Detail)
		}
	}
}

func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	topo := twoHop(t)
	topo.Events = []Event{
		{At: 2, Kind: EventRate, Link: "a->b", Rate: units.MbitsPerSecond(40)},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	const runs = 6
	opts := Options{Duration: 3, Seed: 7}
	want, err := RunMany(context.Background(), topo, opts, runs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		if want[r].Seed != 7+int64(r) {
			t.Errorf("run %d seed = %d, want %d", r, want[r].Seed, 7+r)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := RunMany(context.Background(), topo, opts, runs, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential results", workers)
		}
	}
}

func TestTablesAndCSV(t *testing.T) {
	topo := twoHop(t)
	results, err := RunMany(context.Background(), topo, Options{Duration: 2, Seed: 3}, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFlowTable(&sb, topo, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteLinkTable(&sb, topo, results); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"conf", "agg", "a->b", "b->c", "fifo+threshold", "wfq+sharing"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := WriteFlowCSV(&sb, topo, results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(sb.String()), "\n"); lines != 3*2 {
		t.Errorf("flow CSV has %d data rows, want 6", lines)
	}
	sb.Reset()
	if err := WriteLinkCSV(&sb, topo, results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(sb.String()), "\n"); lines != 3*2*2 {
		t.Errorf("link CSV has %d data rows, want 12", lines)
	}
}

// TestValidateNameSemantics pins how Validate resolves names, with the
// exact error text: a flow name is a duplicate at the first index whose
// name an earlier flow already holds, with every earlier flow's default
// ("flowN") applied and no later one yet, so an explicit name colliding
// with a defaulted one is reported wherever the second of the two sits.
func TestValidateNameSemantics(t *testing.T) {
	spec := packet.FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(50)}
	flow := func(name string) Flow {
		return Flow{Name: name, Spec: spec, RouteNodes: []string{"a", "b"}, Source: SourceCBR}
	}
	base := func(names ...string) *Topology {
		topo := &Topology{
			Name: "names",
			Links: []Link{
				{From: "a", To: "b", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1)},
				{From: "b", To: "c", Rate: units.MbitsPerSecond(48), Buffer: units.MegaBytes(1)},
			},
		}
		for _, n := range names {
			topo.Flows = append(topo.Flows, flow(n))
		}
		return topo
	}
	cases := []struct {
		name string
		topo *Topology
		want string
	}{
		{"duplicate explicit name", base("x", "y", "x"), "duplicate flow name x"},
		{"explicit name before its default", base("flow2", "", ""), "duplicate flow name flow2"},
		{"explicit name after its default", base("", "", "flow1", "z"), "duplicate flow name flow1"},
		{"defaulted flow5 against an explicit one", base("", "", "", "", "", "", "flow5"), "duplicate flow name flow5"},
		{"duplicate link name", func() *Topology {
			topo := base("f")
			topo.Links[0].Name, topo.Links[1].Name = "l", "l"
			return topo
		}(), "duplicate link name l"},
		{"link name equal to a default", func() *Topology {
			topo := base("f")
			topo.Links[1].Name = "a->b"
			return topo
		}(), "duplicate link name a->b"},
		{"event naming an unknown flow", func() *Topology {
			topo := base("f", "g")
			topo.Events = []Event{{At: 1, Kind: EventJoin, Flow: "g"}, {At: 2, Kind: EventLeave, Flow: "h"}}
			return topo
		}(), `event 1: unknown flow "h"`},
		{"event naming an unknown link", func() *Topology {
			topo := base("f")
			topo.Events = []Event{{At: 1, Kind: EventFail, Link: "b->a"}}
			return topo
		}(), `event 0: unknown link "b->a"`},
		{"flow with two join events", func() *Topology {
			topo := base("f", "g")
			topo.Events = []Event{
				{At: 3, Kind: EventJoin, Flow: "f"},
				{At: 1, Kind: EventJoin, Flow: "g"},
				{At: 2, Kind: EventJoin, Flow: "f"},
			}
			return topo
		}(), "event 2: flow f joins twice"},
	}
	for _, tc := range cases {
		err := tc.topo.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
		if tc.topo.joinAt != nil {
			t.Errorf("%s: a failed Validate left a join-time table behind", tc.name)
		}
	}

	// Names that do not collide resolve, and the join-time table agrees
	// with a scan of the timeline on a copy that has none.
	topo := base("", "flow0x", "", "late")
	topo.Events = []Event{
		{At: 4, Kind: EventLeave, Flow: "flow0"},
		{At: 2, Kind: EventJoin, Flow: "late"},
		{At: 1, Kind: EventFail, Link: "b->c"},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := []string{topo.Flows[0].Name, topo.Flows[2].Name}; !reflect.DeepEqual(got, []string{"flow0", "flow2"}) {
		t.Errorf("defaulted names %v, want [flow0 flow2]", got)
	}
	scan := *topo
	scan.joinAt = nil
	for fi := range topo.Flows {
		at, has := topo.JoinTime(fi)
		wantAt, wantHas := scan.JoinTime(fi)
		if at != wantAt || has != wantHas {
			t.Errorf("flow %d: JoinTime = (%v, %v) from the table, (%v, %v) from a scan", fi, at, has, wantAt, wantHas)
		}
	}
	if at, has := topo.JoinTime(3); at != 2 || !has {
		t.Errorf("JoinTime(late) = (%v, %v), want (2, true)", at, has)
	}
}

// TestValidateScalesLinearly guards set-up against quadratic name
// resolution: validating 4× the flows on the same generated network
// must cost well under the 16× a per-flow scan of the flows pays. Only
// the ratio is checked (linear is about 4×), never an absolute time.
// Each timed window does the same linear amount of work — four
// validations of the small network against one of the large — so
// other processes competing for the cores (a parallel go test ./...)
// stretch both windows alike instead of sparing the short one. The two
// windows alternate, each after a collection, and each keeps its
// fastest of five.
func TestValidateScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and validates 50k flows; skipped in -short")
	}
	const scale = 4
	window := func(topo *Topology, runs int) time.Duration {
		runtime.GC()
		start := time.Now()
		for range runs {
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	small, err := Generate("random?links=80,flows=10000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	large, err := Generate(fmt.Sprintf("random?links=80,flows=%d,seed=1", scale*10000))
	if err != nil {
		t.Fatal(err)
	}
	smallBest, largeBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		smallBest = min(smallBest, window(small, scale))
		largeBest = min(largeBest, window(large, 1))
	}
	per := smallBest / scale
	ratio := float64(largeBest) / float64(per)
	t.Logf("Validate: %v at 10k flows (mean of %d), %v at 40k: ratio %.1f", per, scale, largeBest, ratio)
	if ratio >= 8 {
		t.Errorf("Validate at 4× the flows costs %.1f× the time, want under 8×: name resolution is no longer linear", ratio)
	}
}

// TestVerifyCatchesLossFromTotals plants a violation — a first hop at
// half Proposition 1's thresholds, still claiming the guarantee, where
// four shaped greedy flows open with their whole bucket at once — and
// requires Verify to catch it with and without per-flow link tables.
// Without them the check is one assertion per guaranteed link from its
// totals, and it must fail at exactly the links where some flow's
// per-flow assertion fails: the first hop, not the full-threshold
// second.
func TestVerifyCatchesLossFromTotals(t *testing.T) {
	topo := &Topology{
		Name: "halved",
		Links: []Link{
			{Name: "half", From: "a", To: "b", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(700), PropDelay: 0.001, Spec: "fifo+threshold?scale=0.5"},
			{Name: "full", From: "b", To: "c", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(700), PropDelay: 0.002, Spec: "fifo+threshold"},
		},
	}
	for i := 0; i < 4; i++ {
		topo.Flows = append(topo.Flows, Flow{
			Name: fmt.Sprintf("g%d", i), RouteNodes: []string{"a", "b", "c"}, Source: SourceGreedy, Shaped: true,
			Spec: packet.FlowSpec{PeakRate: units.MbitsPerSecond(100), TokenRate: units.MbitsPerSecond(4), BucketSize: units.KiloBytes(100)},
		})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	failedAt := func(skip bool) map[string]bool {
		res, err := Run(context.Background(), topo, Options{Duration: 1, Seed: 1, SkipLinkFlows: skip})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rejections) != 0 {
			t.Fatalf("admission refused %v", res.Rejections)
		}
		failed := map[string]bool{}
		for _, a := range Verify(topo, &res) {
			if a.Name != "zero-conformant-loss" {
				continue
			}
			if totals := strings.HasSuffix(a.Detail, "(totals)"); totals != skip {
				t.Errorf("SkipLinkFlows %v: assertion %q", skip, a.Detail)
			}
			if a.Failed() {
				for _, l := range topo.Links {
					if strings.Contains(a.Detail, "link "+l.Name) {
						failed[l.Name] = true
					}
				}
			}
		}
		return failed
	}
	perFlow, totals := failedAt(false), failedAt(true)
	if !perFlow["half"] {
		t.Fatal("half the thresholds lost no conformant packet; the planted violation tests nothing")
	}
	for _, l := range topo.Links {
		if perFlow[l.Name] != totals[l.Name] {
			t.Errorf("link %s: per-flow loss %v, totals loss %v", l.Name, perFlow[l.Name], totals[l.Name])
		}
	}
}
