package experiment

import (
	"strings"
	"testing"

	"bufqos/internal/units"
)

const sampleWorkload = `{
  "name": "custom",
  "link_mbps": 100,
  "flows": [
    {"count": 2, "peak_mbps": 16, "avg_mbps": 2, "token_mbps": 2,
     "bucket_kb": 50, "mean_burst_kb": 50, "conformance": "conformant"},
    {"peak_mbps": 40, "avg_mbps": 16, "token_mbps": 2,
     "bucket_kb": 50, "mean_burst_kb": 250, "conformance": "aggressive", "queue": 1}
  ]
}`

func TestParseWorkload(t *testing.T) {
	w, err := ParseWorkload(strings.NewReader(sampleWorkload))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "custom" || w.LinkRate != units.MbitsPerSecond(100) {
		t.Errorf("metadata = %q %v", w.Name, w.LinkRate)
	}
	if len(w.Flows) != 3 {
		t.Fatalf("expanded to %d flows, want 3 (count 2 + 1)", len(w.Flows))
	}
	if w.Flows[0].Spec.BucketSize != units.KiloBytes(50) || w.Flows[0].Conformance != Conformant {
		t.Errorf("flow 0 = %+v", w.Flows[0])
	}
	if w.Flows[2].Conformance != Aggressive || w.QueueOf[2] != 1 {
		t.Errorf("flow 2 = %+v queue %d", w.Flows[2], w.QueueOf[2])
	}
	if w.QueueOf[0] != 0 {
		t.Errorf("flow 0 queue = %d", w.QueueOf[0])
	}
}

func TestParseWorkloadDefaults(t *testing.T) {
	// Link rate defaults to 48 Mb/s; mean burst defaults to the bucket;
	// conformance defaults to conformant.
	w, err := ParseWorkload(strings.NewReader(`{"flows":[
		{"peak_mbps": 16, "avg_mbps": 2, "token_mbps": 2, "bucket_kb": 50}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if w.LinkRate != DefaultLinkRate {
		t.Errorf("link rate = %v", w.LinkRate)
	}
	if w.Flows[0].MeanBurst != units.KiloBytes(50) {
		t.Errorf("mean burst = %v, want bucket size", w.Flows[0].MeanBurst)
	}
	if w.Flows[0].Conformance != Conformant {
		t.Error("default conformance wrong")
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []string{
		`{`,             // invalid JSON
		`{"flows": []}`, // no flows
		`{"flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 0, "bucket_kb": 1}]}`, // invalid spec
		`{"flows": [{"peak_mbps": 1, "avg_mbps": 5, "token_mbps": 1, "bucket_kb": 1}]}`, // avg > peak
		`{"flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 1, "bucket_kb": 1, "conformance": "weird"}]}`,
		`{"flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 1, "bucket_kb": 1, "queue": -1}]}`,
		`{"flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 1, "bucket_kb": 1, "count": -2}]}`,
		`{"link_mbps": -5, "flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 1, "bucket_kb": 1}]}`,
		`{"flows": [{"nope": 1}]}`, // unknown field
		`{"schemes": ["bogus+threshold"],
		  "flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 1, "bucket_kb": 1}]}`, // bad scheme spec
		`{"schemes": ["fifo+"],
		  "flows": [{"peak_mbps": 1, "avg_mbps": 1, "token_mbps": 1, "bucket_kb": 1}]}`, // malformed spec
	}
	for i, c := range cases {
		if _, err := ParseWorkload(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestParseWorkloadSchemes(t *testing.T) {
	w, err := ParseWorkload(strings.NewReader(`{
	  "schemes": ["fifo+threshold", "hybrid:2+sharing", "FIFO+RED?min=0.2"],
	  "flows": [{"peak_mbps": 16, "avg_mbps": 2, "token_mbps": 2, "bucket_kb": 50},
	            {"peak_mbps": 16, "avg_mbps": 2, "token_mbps": 2, "bucket_kb": 50, "queue": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fifo+threshold", "hybrid:2+sharing", "FIFO+RED?min=0.2"}
	if len(w.Schemes) != len(want) {
		t.Fatalf("schemes = %v, want %v", w.Schemes, want)
	}
	for i := range want {
		if w.Schemes[i] != want[i] {
			t.Errorf("scheme %d = %q, want %q (specs are carried verbatim)", i, w.Schemes[i], want[i])
		}
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	var b strings.Builder
	flows := Table1Flows()
	if err := WriteWorkload(&b, "table1", DefaultLinkRate, flows, Table1QueueOf()); err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, b.String())
	}
	if len(w.Flows) != len(flows) {
		t.Fatalf("round-trip flow count %d, want %d", len(w.Flows), len(flows))
	}
	for i := range flows {
		if w.Flows[i].Spec != flows[i].Spec || w.Flows[i].Conformance != flows[i].Conformance ||
			w.Flows[i].AvgRate != flows[i].AvgRate || w.Flows[i].MeanBurst != flows[i].MeanBurst {
			t.Errorf("flow %d mismatch: %+v vs %+v", i, w.Flows[i], flows[i])
		}
		if w.QueueOf[i] != Table1QueueOf()[i] {
			t.Errorf("flow %d queue mismatch", i)
		}
	}
}

func TestParsedWorkloadRuns(t *testing.T) {
	w, err := ParseWorkload(strings.NewReader(sampleWorkload))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(&Options{
		Flows:      w.Flows,
		SchemeSpec: "fifo+threshold",
		LinkRate:   w.LinkRate,
		Buffer:     units.KiloBytes(500),
		Duration:   2,
		Warmup:     0.2,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 {
		t.Error("parsed workload produced no traffic")
	}
}
