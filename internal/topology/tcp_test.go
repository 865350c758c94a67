package topology

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// tcpPair builds a validated two-hop closed-loop scenario: two tcp
// flows with asymmetric reservations share a bottleneck path
// a -> b -> c, with reverse links carrying their acknowledgements
// home. spec is applied to both forward links.
func tcpPair(t *testing.T, spec string) *Topology {
	t.Helper()
	topo := &Topology{
		Name: "tcppair",
		Links: []Link{
			{From: "a", To: "b", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(150), PropDelay: 0.001, Spec: spec},
			{From: "b", To: "c", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(150), PropDelay: 0.002, Spec: spec},
			{From: "c", To: "b", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(150), PropDelay: 0.002, Spec: spec},
			{From: "b", To: "a", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(150), PropDelay: 0.001, Spec: spec},
		},
		Flows: []Flow{
			{
				Name: "big",
				Spec: packet.FlowSpec{
					PeakRate: units.MbitsPerSecond(10), TokenRate: units.MbitsPerSecond(6),
					BucketSize: units.KiloBytes(10),
				},
				RouteNodes: []string{"a", "b", "c"},
				Source:     SourceTCP,
			},
			{
				Name: "small",
				Spec: packet.FlowSpec{
					PeakRate: units.MbitsPerSecond(10), TokenRate: units.MbitsPerSecond(2),
					BucketSize: units.KiloBytes(10),
				},
				RouteNodes: []string{"a", "b", "c"},
				Source:     SourceTCP,
			},
		},
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestValidateTCPReverseRoute(t *testing.T) {
	topo := tcpPair(t, "fifo+threshold")
	// Forward a->b->c is links 0,1; reverse of hop 0 is b->a (link 3),
	// of hop 1 is c->b (link 2).
	if !reflect.DeepEqual(topo.Flows[0].Route, []int{0, 1}) {
		t.Errorf("route %v", topo.Flows[0].Route)
	}
	if !reflect.DeepEqual(topo.Flows[0].ReverseRoute, []int{3, 2}) {
		t.Errorf("reverse route %v, want [3 2]", topo.Flows[0].ReverseRoute)
	}
}

func TestValidateTCPErrors(t *testing.T) {
	// No reverse link: rejected with a message naming the missing edge.
	topo := &Topology{
		Name:  "bad",
		Links: []Link{{From: "a", To: "b", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(100)}},
		Flows: []Flow{{
			Spec:       packet.FlowSpec{TokenRate: units.MbitsPerSecond(1), BucketSize: units.KiloBytes(10)},
			RouteNodes: []string{"a", "b"},
			Source:     SourceTCP,
		}},
	}
	err := topo.Validate()
	if err == nil || !strings.Contains(err.Error(), "reverse link b->a") {
		t.Errorf("missing reverse link: err=%v", err)
	}
	// A shaped tcp flow is contradictory.
	topo2 := &Topology{
		Name: "bad2",
		Links: []Link{
			{From: "a", To: "b", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(100)},
			{From: "b", To: "a", Rate: units.MbitsPerSecond(10), Buffer: units.KiloBytes(100)},
		},
		Flows: []Flow{{
			Spec:       packet.FlowSpec{TokenRate: units.MbitsPerSecond(1), BucketSize: units.KiloBytes(10)},
			RouteNodes: []string{"a", "b"},
			Source:     SourceTCP,
			Shaped:     true,
		}},
	}
	if err := topo2.Validate(); err == nil || !strings.Contains(err.Error(), "shaped") {
		t.Errorf("shaped tcp: err=%v", err)
	}
}

// TestTCPClosedLoopDelivers drives the feedback loop end to end: both
// windows open, the bottleneck fills, drops trigger retransmissions,
// and goodput excludes the duplicate copies.
func TestTCPClosedLoopDelivers(t *testing.T) {
	topo := tcpPair(t, "fifo+threshold")
	res, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var totalGoodput units.Bytes
	for fi := range res.Flows {
		fr := &res.Flows[fi]
		if !fr.Admitted {
			t.Fatalf("flow %s rejected", fr.Name)
		}
		if fr.Goodput.Packets == 0 {
			t.Errorf("flow %s: zero goodput", fr.Name)
		}
		if fr.Goodput.Packets > fr.Delivered.Packets {
			t.Errorf("flow %s: goodput %d exceeds delivered %d", fr.Name, fr.Goodput.Packets, fr.Delivered.Packets)
		}
		totalGoodput += fr.Goodput.Bytes
	}
	// Two greedy windows against a 10 Mbit/s bottleneck must saturate
	// it: total goodput well above half capacity over the 5 s run.
	if totalGoodput.Bits() < 0.5*10e6*5 {
		t.Errorf("bottleneck underused: total goodput %v", totalGoodput)
	}
	// Saturation means loss, loss means retransmissions.
	if res.Flows[0].Retransmits+res.Flows[1].Retransmits == 0 {
		t.Error("no retransmissions despite a saturated bottleneck")
	}
}

// TestTCPShardEquivalence extends the bit-identity contract to the
// closed loop: ACK and drop notifications crossing shard boundaries
// must reproduce the single-shard schedule exactly.
func TestTCPShardEquivalence(t *testing.T) {
	for _, spec := range []string{"fifo+threshold", "fifo+sharing", "fifo+red", "fifo+none"} {
		t.Run(spec, func(t *testing.T) {
			topo := tcpPair(t, spec)
			opts := Options{Duration: 3, Seed: 7}
			base, err := Run(context.Background(), topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 4} {
				o := opts
				o.Shards = shards
				res, err := Run(context.Background(), topo, o)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(base, res) {
					t.Errorf("shards=%d: result differs from single-shard run", shards)
				}
			}
		})
	}
}

// TestVerifyTCPGoodputFloor: the closed-loop assertion fires for
// guaranteed routes and passes under per-flow thresholds.
func TestVerifyTCPGoodputFloor(t *testing.T) {
	topo := tcpPair(t, "fifo+threshold")
	res, err := Run(context.Background(), topo, Options{Duration: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	floors := 0
	for _, a := range Verify(topo, &res) {
		if a.Name != "tcp-goodput-floor" {
			continue
		}
		floors++
		if a.Err != nil {
			t.Errorf("%s: %v", a.Detail, a.Err)
		}
	}
	if floors != 2 {
		t.Errorf("want 2 goodput-floor assertions, got %d", floors)
	}
	// A taildrop route makes no per-flow promise: no floor asserted.
	plain := tcpPair(t, "fifo+none")
	res2, err := Run(context.Background(), plain, Options{Duration: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Verify(plain, &res2) {
		if a.Name == "tcp-goodput-floor" {
			t.Errorf("goodput floor asserted on a taildrop route: %s", a.Detail)
		}
	}
}

// TestGFR3ShardedPoolStaysBounded runs the shipped closed-loop scenario
// at one and four shards with the registry on. Pooled packets cross the
// barrier in both directions — data forward, ACKs and drop
// notifications back — each leaving one shard's pool by value and
// joining the next one's. The instrumented results equal the
// uninstrumented single-shard one, and every pool's live high-water
// stays a small fraction of the packets offered: a hand-off that forgot
// a release, or pools that drifted out of balance, would count them all.
// `make race` runs this under the race detector.
func TestGFR3ShardedPoolStaysBounded(t *testing.T) {
	topo, err := Load("../../topologies/gfr3.json")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Duration: 3, Seed: 42}
	base, err := Run(context.Background(), topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var offered int64
	for i := range base.Flows {
		offered += base.Flows[i].Offered.Packets
	}
	for _, shards := range []int{1, 4} {
		reg := metrics.NewRegistry()
		o := opts
		o.Shards, o.Metrics = shards, reg
		res, err := Run(context.Background(), topo, o)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("shards=%d with metrics: result differs from the plain single-shard run", shards)
		}
		live := reg.Gauge("sim.packets_live").Max()
		created, _ := reg.Value("sim.packets_created")
		t.Logf("shards=%d: %d packets offered, live high-water %d, created %v", shards, offered, live, created)
		if live <= 0 || live > offered/10 {
			t.Errorf("shards=%d: sim.packets_live high-water %d for %d offered packets, want within (0, %d]",
				shards, live, offered, offered/10)
		}
		if int64(created) > offered/5 {
			t.Errorf("shards=%d: %v packets created for %d offered: the pools are not recycling", shards, created, offered)
		}
	}
}

// TestTCPZeroDelayAckPath covers the one acknowledgement that cannot
// simply be scheduled δ after its delivery: with zero-delay reverse
// links behind a wired last hop, an ACK booked at departure is due at
// its arrival time t, and must run in an event keyed as the delivery's
// own event was (t, departure, its sequence number), where the sender
// used to get it by a direct call. The pinned digest covers the whole
// Result but its event count, and equals the digest of the engine that
// delivered by events.
func TestTCPZeroDelayAckPath(t *testing.T) {
	topo := tcpPair(t, "fifo+threshold")
	topo.Links[2].PropDelay, topo.Links[3].PropDelay = 0, 0
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), topo, Options{Duration: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Goodput.Packets == 0 {
		t.Fatal("no goodput: the closed loop never ran")
	}
	res.Events = 0
	b, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	const want = "5b43c84a247b8b9b"
	if got := fmt.Sprintf("%x", sha256.Sum256(b))[:16]; got != want {
		t.Errorf("result digest %s, want %s", got, want)
	}
}
