package topology

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// TestParseWireTypedScenario loads a scenario in the suffixed wire
// encoding shared with qosd and checks every quantity decodes to its
// exact value.
func TestParseWireTypedScenario(t *testing.T) {
	wire := `{
  "name": "wire",
  "links": [
    {"from": "a", "to": "b", "rate": "48Mbit/s", "buffer": "600KB",
     "headroom": "50KB", "prop_delay": 0.005}
  ],
  "flows": [
    {"name": "f0", "route": ["a", "b"], "source": "cbr", "shaped": true,
     "spec": {"peak": "6Mbit/s", "token": "2Mbit/s", "bucket": "60KB"},
     "avg": "2Mbit/s", "burst": "60KB", "packet": "500B"}
  ],
  "events": [
    {"at": 1, "type": "rate", "link": "a->b", "rate": "24Mbit/s"}
  ]
}`
	tw, err := Parse(strings.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	l := tw.Links[0]
	if l.Rate != 48*units.Mbps || l.Buffer != 600*units.KBytes || l.Headroom != 50*units.KBytes || l.PropDelay != 0.005 {
		t.Errorf("link decoded wrong: %+v", l)
	}
	f := tw.Flows[0]
	spec := packet.FlowSpec{PeakRate: 6 * units.Mbps, TokenRate: 2 * units.Mbps, BucketSize: 60 * units.KBytes}
	if f.Spec != spec || f.AvgRate != 2*units.Mbps || f.MeanBurst != 60*units.KBytes || f.PacketSize != 500 {
		t.Errorf("flow decoded wrong: %+v", f)
	}
	if ev := tw.Events[0]; ev.At != 1 || ev.Kind != EventRate || ev.Rate != 24*units.Mbps {
		t.Errorf("event decoded wrong: %+v", ev)
	}
	roundTrip(t, tw)
}

// TestParseWireEventTimes: timeline times are plain seconds, and a time
// with no short decimal form survives a Write round trip bit for bit.
func TestParseWireEventTimes(t *testing.T) {
	src := `{
  "name": "evt",
  "links": [
    {"from": "a", "to": "b", "rate": "48Mbit/s", "buffer": "600KB"}
  ],
  "flows": [
    {"name": "f0", "route": ["a", "b"], "source": "cbr",
     "spec": {"peak": "6Mbit/s", "token": "2Mbit/s", "bucket": "60KB"}}
  ],
  "events": [
    {"at": 0.25, "type": "rate", "link": "a->b", "rate": "24Mbit/s"},
    {"at": 1, "type": "rate", "link": "a->b", "rate": "48Mbit/s"},
    {"at": 1.5, "type": "fail", "link": "a->b"}
  ]
}`
	tw, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{0.25, 1, 1.5} {
		if tw.Events[i].At != w {
			t.Errorf("event %d: at=%v, want %v", i, tw.Events[i].At, w)
		}
	}
	tw.Events[1].At = 0.1 + 0.2 // 0.30000000000000004
	tw.Links[0].PropDelay = 1.0 / 3
	roundTrip(t, tw)
}

// TestWriteRoundTripsExactly: Parse(Write(t)) is t, field for field,
// for every shipped scenario, the committed fuzz case and generated
// networks up to bench's net-open size, whose rates, buffers and delays
// have no short decimal form.
func TestWriteRoundTripsExactly(t *testing.T) {
	paths, err := filepath.Glob("../../topologies/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("shipped scenarios: %v, %v", paths, err)
	}
	for _, path := range append(paths, "testdata/wfq_none_fuzz_case.json") {
		topo, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, topo)
	}
	for _, spec := range []string{"line", "fattree?k=4", "random?links=80,flows=8000,seed=1"} {
		topo, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, topo)
	}
}

// roundTrip checks that the validated topo writes, parses back to the
// same scenario, and writes again to the same bytes.
func roundTrip(t testing.TB, topo *Topology) {
	t.Helper()
	var first, second bytes.Buffer
	if err := Write(&first, topo); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("%s: written scenario does not parse: %v\n%s", topo.Name, err, first.Bytes())
	}
	if !reflect.DeepEqual(back, topo) {
		t.Fatalf("%s: Parse(Write(t)) differs from t:\n%s", topo.Name, first.Bytes())
	}
	if err := Write(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: writing the parsed scenario changed its bytes", topo.Name)
	}
}

// FuzzParseTopology: no input panics Parse, and every scenario Parse
// accepts round-trips exactly through Write.
func FuzzParseTopology(f *testing.F) {
	paths, err := filepath.Glob("../../topologies/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("shipped scenarios: %v, %v", paths, err)
	}
	for _, path := range append(paths, "testdata/wfq_none_fuzz_case.json") {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		roundTrip(t, topo)
	})
}
