package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"bufqos/internal/jsonscan"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

// flowJSON is the on-disk form of a FlowConfig, in the paper's units
// (Mb/s and KBytes) so workload files read like Table 1.
type flowJSON struct {
	// Count expands this row into that many identical flows (default 1).
	Count int `json:"count,omitempty"`
	// PeakMbps, AvgMbps, TokenMbps are rates in Mb/s.
	PeakMbps  float64 `json:"peak_mbps"`
	AvgMbps   float64 `json:"avg_mbps"`
	TokenMbps float64 `json:"token_mbps"`
	// BucketKB and MeanBurstKB are sizes in decimal KBytes.
	BucketKB    float64 `json:"bucket_kb"`
	MeanBurstKB float64 `json:"mean_burst_kb"`
	// Conformance is "conformant", "moderate", or "aggressive".
	Conformance string `json:"conformance"`
	// Queue assigns the row's flows to a hybrid queue (default 0).
	Queue int `json:"queue,omitempty"`
}

// workloadJSON is a full scenario file.
type workloadJSON struct {
	// Name documents the scenario.
	Name string `json:"name,omitempty"`
	// LinkMbps overrides the 48 Mb/s default when positive.
	LinkMbps float64 `json:"link_mbps,omitempty"`
	// Schemes lists registry scheme specs to sweep by default (e.g.
	// "fifo+threshold", "hybrid:2+sharing"); CLI flags override it.
	Schemes []string   `json:"schemes,omitempty"`
	Flows   []flowJSON `json:"flows"`
}

// Workload is a parsed scenario: the flow set plus its metadata.
type Workload struct {
	Name     string
	LinkRate units.Rate
	// Schemes are the scenario's own default scheme specs, validated
	// against the registry at parse time. SweepWorkload falls back to
	// them when the caller passes no specs.
	Schemes []string
	Flows   []FlowConfig
	QueueOf []int
}

// ParseWorkload reads a JSON scenario. Example:
//
//	{
//	  "name": "table1-like",
//	  "flows": [
//	    {"count": 3, "peak_mbps": 16, "avg_mbps": 2, "token_mbps": 2,
//	     "bucket_kb": 50, "mean_burst_kb": 50, "conformance": "conformant"},
//	    {"count": 3, "peak_mbps": 40, "avg_mbps": 16, "token_mbps": 2,
//	     "bucket_kb": 50, "mean_burst_kb": 250, "conformance": "aggressive", "queue": 1}
//	  ]
//	}
func ParseWorkload(r io.Reader) (*Workload, error) {
	var w workloadJSON
	if err := jsonscan.Decode(r, &w); err != nil {
		return nil, fmt.Errorf("experiment: parsing workload: %w", err)
	}
	if len(w.Flows) == 0 {
		return nil, fmt.Errorf("experiment: workload %q has no flows", w.Name)
	}
	out := &Workload{Name: w.Name, LinkRate: DefaultLinkRate, Schemes: w.Schemes}
	for _, spec := range w.Schemes {
		if _, err := scheme.Parse(spec); err != nil {
			return nil, fmt.Errorf("experiment: workload %q: %w", w.Name, err)
		}
	}
	if w.LinkMbps != 0 {
		if w.LinkMbps < 0 {
			return nil, fmt.Errorf("experiment: negative link rate %v", w.LinkMbps)
		}
		out.LinkRate = units.MbitsPerSecond(w.LinkMbps)
	}
	for i, row := range w.Flows {
		count := row.Count
		if count == 0 {
			count = 1
		}
		if count < 0 {
			return nil, fmt.Errorf("experiment: flow row %d has negative count", i)
		}
		var conf Conformance
		switch row.Conformance {
		case "conformant", "":
			conf = Conformant
		case "moderate":
			conf = Moderate
		case "aggressive":
			conf = Aggressive
		default:
			return nil, fmt.Errorf("experiment: flow row %d: unknown conformance %q", i, row.Conformance)
		}
		fc := FlowConfig{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(row.PeakMbps),
				TokenRate:  units.MbitsPerSecond(row.TokenMbps),
				BucketSize: units.KiloBytes(row.BucketKB),
			},
			AvgRate:     units.MbitsPerSecond(row.AvgMbps),
			MeanBurst:   units.KiloBytes(row.MeanBurstKB),
			Conformance: conf,
		}
		if fc.MeanBurst == 0 {
			fc.MeanBurst = fc.Spec.BucketSize
		}
		if err := fc.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: flow row %d: %w", i, err)
		}
		if fc.AvgRate <= 0 || (fc.Spec.PeakRate > 0 && fc.AvgRate > fc.Spec.PeakRate) {
			return nil, fmt.Errorf("experiment: flow row %d: average rate %v outside (0, peak]", i, fc.AvgRate)
		}
		if row.Queue < 0 {
			return nil, fmt.Errorf("experiment: flow row %d: negative queue", i)
		}
		for c := 0; c < count; c++ {
			out.Flows = append(out.Flows, fc)
			out.QueueOf = append(out.QueueOf, row.Queue)
		}
	}
	return out, nil
}

// WriteWorkload serializes a flow set back to the JSON form (one row
// per flow; rows are not re-compressed with counts).
func WriteWorkload(w io.Writer, name string, linkRate units.Rate, flows []FlowConfig, queueOf []int) error {
	doc := workloadJSON{Name: name, LinkMbps: linkRate.Mbits()}
	for i, f := range flows {
		var conf string
		switch f.Conformance {
		case Conformant:
			conf = "conformant"
		case Moderate:
			conf = "moderate"
		case Aggressive:
			conf = "aggressive"
		}
		row := flowJSON{
			PeakMbps:    f.Spec.PeakRate.Mbits(),
			AvgMbps:     f.AvgRate.Mbits(),
			TokenMbps:   f.Spec.TokenRate.Mbits(),
			BucketKB:    f.Spec.BucketSize.KB(),
			MeanBurstKB: f.MeanBurst.KB(),
			Conformance: conf,
		}
		if queueOf != nil {
			row.Queue = queueOf[i]
		}
		doc.Flows = append(doc.Flows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
