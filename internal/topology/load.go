package topology

import (
	"fmt"
	"io"
	"os"

	"bufqos/internal/jsonscan"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// The JSON scenario format mirrors the paper's units: rates in Mbits/s,
// buffers and bucket depths in KBytes, propagation delays in
// milliseconds, times in simulated seconds. Alongside those legacy
// numeric fields, every quantity is also accepted in the suffixed wire
// encoding shared with the qosd control plane ("48Mbit/s", "100KB",
// "5ms", and flow "spec" contract objects); a file may use either form
// per field, never both.
type jsonTopology struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Links       []jsonLink  `json:"links"`
	Flows       []jsonFlow  `json:"flows"`
	Events      []jsonEvent `json:"events,omitempty"`
}

type jsonLink struct {
	Name       string  `json:"name,omitempty"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	RateMbps   float64 `json:"rate_mbps,omitempty"`
	BufferKB   float64 `json:"buffer_kb,omitempty"`
	HeadroomKB float64 `json:"headroom_kb,omitempty"`
	PropMs     float64 `json:"prop_delay_ms,omitempty"`
	Scheme     string  `json:"scheme,omitempty"`
	Queues     []int   `json:"queues,omitempty"`

	// Wire-typed alternatives to the numeric fields above.
	Rate      units.Rate  `json:"rate,omitempty"`
	Buffer    units.Bytes `json:"buffer,omitempty"`
	Headroom  units.Bytes `json:"headroom,omitempty"`
	PropDelay units.Time  `json:"prop_delay,omitempty"`
}

type jsonFlow struct {
	Name        string   `json:"name,omitempty"`
	Route       []string `json:"route"`
	PeakMbps    float64  `json:"peak_mbps,omitempty"`
	TokenMbps   float64  `json:"token_mbps,omitempty"`
	BucketKB    float64  `json:"bucket_kb,omitempty"`
	AvgMbps     float64  `json:"avg_mbps,omitempty"`
	BurstKB     float64  `json:"burst_kb,omitempty"`
	PacketBytes float64  `json:"packet_bytes,omitempty"`
	Source      string   `json:"source,omitempty"`
	Shaped      bool     `json:"shaped,omitempty"`
	Class       int      `json:"class,omitempty"`

	// Spec is the wire-typed alternative to peak/token/bucket: the same
	// {"peak","token","bucket"} contract object a qosd join carries.
	Spec    *packet.FlowSpec `json:"spec,omitempty"`
	AvgRate units.Rate       `json:"avg,omitempty"`
	Burst   units.Bytes      `json:"burst,omitempty"`
	PktSize units.Bytes      `json:"packet,omitempty"`
}

type jsonEvent struct {
	// At accepts both encodings directly through units.Time: a suffixed
	// wire duration ("250ms", "1s") or a bare number of simulated
	// seconds.
	At       units.Time `json:"at"`
	Type     string     `json:"type"`
	Flow     string     `json:"flow,omitempty"`
	Link     string     `json:"link,omitempty"`
	RateMbps float64    `json:"rate_mbps,omitempty"`
	Rate     units.Rate `json:"rate,omitempty"`
}

// Parse reads and validates a JSON scenario. Unknown fields and data
// after the scenario are rejected so typos in hand-written files
// surface immediately.
func Parse(r io.Reader) (*Topology, error) {
	var jt jsonTopology
	if err := jsonscan.Decode(r, &jt); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	t := &Topology{Name: jt.Name, Description: jt.Description}
	// pick resolves one quantity given in at most one of its two
	// encodings (legacy numeric field vs wire-typed field).
	pick := func(where, field string, legacy, wire float64) (float64, error) {
		if legacy != 0 && wire != 0 {
			return 0, fmt.Errorf("topology: %s: both %s_mbps-style and %q forms given", where, field, field)
		}
		if wire != 0 {
			return wire, nil
		}
		return legacy, nil
	}
	for i, jl := range jt.Links {
		where := fmt.Sprintf("link %d", i)
		rate, err := pick(where, "rate", units.MbitsPerSecond(jl.RateMbps).BitsPerSecond(), jl.Rate.BitsPerSecond())
		if err != nil {
			return nil, err
		}
		buffer, err := pick(where, "buffer", float64(units.KiloBytes(jl.BufferKB)), float64(jl.Buffer))
		if err != nil {
			return nil, err
		}
		headroom, err := pick(where, "headroom", float64(units.KiloBytes(jl.HeadroomKB)), float64(jl.Headroom))
		if err != nil {
			return nil, err
		}
		prop, err := pick(where, "prop_delay", jl.PropMs/1000, jl.PropDelay.SecondsFloat())
		if err != nil {
			return nil, err
		}
		t.Links = append(t.Links, Link{
			Name:      jl.Name,
			From:      jl.From,
			To:        jl.To,
			Rate:      units.Rate(rate),
			Buffer:    units.Bytes(buffer),
			Headroom:  units.Bytes(headroom),
			PropDelay: prop,
			Spec:      jl.Scheme,
			Queues:    jl.Queues,
		})
	}
	for i, jf := range jt.Flows {
		where := fmt.Sprintf("flow %d", i)
		if jf.Spec != nil && (jf.PeakMbps != 0 || jf.TokenMbps != 0 || jf.BucketKB != 0) {
			return nil, fmt.Errorf("topology: %s: both a wire-typed \"spec\" and peak/token/bucket fields given", where)
		}
		avg, err := pick(where, "avg", units.MbitsPerSecond(jf.AvgMbps).BitsPerSecond(), jf.AvgRate.BitsPerSecond())
		if err != nil {
			return nil, err
		}
		burst, err := pick(where, "burst", float64(units.KiloBytes(jf.BurstKB)), float64(jf.Burst))
		if err != nil {
			return nil, err
		}
		pkt, err := pick(where, "packet", jf.PacketBytes, float64(jf.PktSize))
		if err != nil {
			return nil, err
		}
		f := Flow{
			Name:       jf.Name,
			RouteNodes: jf.Route,
			Source:     SourceKind(jf.Source),
			AvgRate:    units.Rate(avg),
			MeanBurst:  units.Bytes(burst),
			PacketSize: units.Bytes(pkt),
			Shaped:     jf.Shaped,
			Class:      jf.Class,
		}
		if jf.Spec != nil {
			f.Spec = *jf.Spec
		} else {
			f.Spec.PeakRate = units.MbitsPerSecond(jf.PeakMbps)
			f.Spec.TokenRate = units.MbitsPerSecond(jf.TokenMbps)
			f.Spec.BucketSize = units.KiloBytes(jf.BucketKB)
		}
		t.Flows = append(t.Flows, f)
	}
	for i, je := range jt.Events {
		rate, err := pick(fmt.Sprintf("event %d", i), "rate", units.MbitsPerSecond(je.RateMbps).BitsPerSecond(), je.Rate.BitsPerSecond())
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, Event{
			At:   je.At.SecondsFloat(),
			Kind: EventKind(je.Type),
			Flow: je.Flow,
			Link: je.Link,
			Rate: units.Rate(rate),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Load parses and validates the scenario file at path.
func Load(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
