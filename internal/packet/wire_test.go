package packet

import (
	"bytes"
	"encoding/json"
	"testing"

	"bufqos/internal/units"
)

func TestFlowSpecJSONRoundTrip(t *testing.T) {
	specs := []FlowSpec{
		{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(60), PeakRate: units.MbitsPerSecond(16)},
		{TokenRate: units.MbitsPerSecond(0.4), BucketSize: units.KiloBytes(50)},
		{TokenRate: 1234, BucketSize: 7},
	}
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var back FlowSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != s {
			t.Errorf("round trip %+v -> %s -> %+v", s, b, back)
		}
	}
}

func TestFlowSpecJSONForm(t *testing.T) {
	s := FlowSpec{TokenRate: units.MbitsPerSecond(2), BucketSize: units.KiloBytes(60), PeakRate: units.MbitsPerSecond(6)}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}`
	if string(b) != want {
		t.Errorf("marshal = %s, want %s", b, want)
	}
	// Zero peak is omitted.
	s.PeakRate = 0
	b, _ = json.Marshal(s)
	if string(b) != `{"token":"2Mbit/s","bucket":"60KB"}` {
		t.Errorf("marshal without peak = %s", b)
	}
	// Unknown fields are rejected.
	var back FlowSpec
	if err := json.Unmarshal([]byte(`{"token":"2Mbit/s","bucket":"60KB","sigma":"1KB"}`), &back); err == nil {
		t.Error("unknown field accepted")
	}
	// Suffix-free numbers use base units (bits/s, bytes).
	if err := json.Unmarshal([]byte(`{"token":2000000,"bucket":60000}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.TokenRate != units.MbitsPerSecond(2) || back.BucketSize != units.KiloBytes(60) {
		t.Errorf("numeric form decoded to %+v", back)
	}
}

// flowSpecWire is the reflection reference for FlowSpec's wire form:
// what ScanFlowSpec must agree with.
type flowSpecWire struct {
	Peak   units.Rate  `json:"peak,omitempty"`
	Token  units.Rate  `json:"token"`
	Bucket units.Bytes `json:"bucket"`
}

// strictUnmarshal is json.Unmarshal with DisallowUnknownFields.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestFlowSpecFastParserAgreesWithStrict feeds the same documents to
// the scanner's entry point and to the reflection decoder and requires
// identical accept/reject verdicts and values.
func TestFlowSpecFastParserAgreesWithStrict(t *testing.T) {
	cases := []string{
		`{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}`,
		` { "token" : "2Mbit/s" , "bucket" : "60KB" } `,
		"\n{\t\"bucket\":\"60KB\",\n \"token\":\"2Mbit/s\"}\r\n",
		`{"token":2000000,"bucket":60000}`,
		`{"token":2e6,"bucket":6.0e4}`,
		`{}`,
		`null`,
		`{"token":"2Mbit/s","bucket":"60KB","sigma":"1KB"}`, // unknown key
		`{"token":"2Mbit/s"`,                                // truncated
		`{"token":"2Mbit/s","bucket":"60\u004BB"}`,          // escape in a unit: refused
		`{"token":"oops","bucket":"60KB"}`,                  // bad value
		`[1,2]`,
		`"2Mbit/s"`,
		`{"TOKEN":"2Mbit/s","Bucket":"60KB","pEaK":"6Mbit/s"}`,   // case-folded keys
		"{\"to\u212Aen\":\"2Mbit/s\",\"bucket\":\"60KB\"}",       // Kelvin sign folds to k
		"{\"token\":\"2Mbit/s\",\"bucket\":\"60KB\",\"ſpec\":1}", // ſ folds to s: still unknown
		`{"token":"1Mbit/s","bucket":"60KB","token":"2Mbit/s"}`,  // duplicate: last wins
		`{"token":"2Mbit/s","bucket":"1KB","bucket":"60KB","peak":"6Mbit/s"}`,
		`{"token":"2Mbit/s","bucket":"60KB","peak":null}`, // null member
		`{"token":null,"bucket":"60KB"}`,
		`{"token":"2mbps","bucket":" 60 kb "}`,
		`{"token":"2Mbit/s","bucket":"60KB",}`,
		`{"token":"2Mbit/s","bucket":{"x":1}}`,
		`{"token":-0,"bucket":1e400}`,
	}
	for _, c := range cases {
		// Straight to the scanner: qosd runs it on bytes encoding/json
		// has not validated.
		var fast FlowSpec
		fastErr := fast.UnmarshalJSON([]byte(c))
		var slow flowSpecWire
		slowErr := strictUnmarshal([]byte(c), &slow)
		if (fastErr == nil) != (slowErr == nil) {
			t.Errorf("%s: fast err %v, strict err %v", c, fastErr, slowErr)
			continue
		}
		if fastErr == nil && (fast.PeakRate != slow.Peak || fast.TokenRate != slow.Token || fast.BucketSize != slow.Bucket) {
			t.Errorf("%s: fast %+v, strict %+v", c, fast, slow)
		}
	}
}
