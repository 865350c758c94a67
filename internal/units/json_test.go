package units

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRateJSONRoundTrip(t *testing.T) {
	for _, r := range []Rate{
		0, 1, 500, Kbps, 48 * Mbps, MbitsPerSecond(1.5), MbitsPerSecond(0.4),
		2 * Gbps, Rate(123456789), Rate(math.Pi * 1e6),
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %v: %v", r, err)
		}
		var back Rate
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != r {
			t.Errorf("round trip %v -> %s -> %v", float64(r), b, float64(back))
		}
	}
}

func TestRateJSONForms(t *testing.T) {
	cases := []struct {
		in   string
		want Rate
	}{
		{`"48Mbit/s"`, 48 * Mbps},
		{`"48Mb/s"`, 48 * Mbps},
		{`"48mbps"`, 48 * Mbps},
		{`"1.5Gbit/s"`, 1500 * Mbps},
		{`"250Kbit/s"`, 250 * Kbps},
		{`"9600bit/s"`, 9600},
		{`"9600b/s"`, 9600},
		{`64000`, 64 * Kbps},
	}
	for _, c := range cases {
		var r Rate
		if err := json.Unmarshal([]byte(c.in), &r); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if r != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, r, c.want)
		}
	}
	if b, _ := json.Marshal(48 * Mbps); string(b) != `"48Mbit/s"` {
		t.Errorf("marshal 48Mbps = %s, want \"48Mbit/s\"", b)
	}
	var r Rate
	if err := json.Unmarshal([]byte(`"48 furlongs"`), &r); err == nil {
		t.Error("bad suffix accepted")
	}
}

func TestBytesJSONRoundTrip(t *testing.T) {
	for _, v := range []Bytes{0, 1, 999, KiloBytes(100), KiloBytes(1.5), MegaBytes(2), 123456, MegaBytes(1e3)} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Bytes
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != v {
			t.Errorf("round trip %d -> %s -> %d", int64(v), b, int64(back))
		}
	}
	cases := []struct {
		in   string
		want Bytes
	}{
		{`"100KB"`, KiloBytes(100)},
		{`"1.5MB"`, KiloBytes(1500)},
		{`"512B"`, 512},
		{`"2GB"`, MegaBytes(2000)},
		{`777`, 777},
	}
	for _, c := range cases {
		var v Bytes
		if err := json.Unmarshal([]byte(c.in), &v); err != nil {
			t.Errorf("unmarshal %s: %v", c.in, err)
			continue
		}
		if v != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, v, c.want)
		}
	}
	if b, _ := json.Marshal(KiloBytes(100)); string(b) != `"100KB"` {
		t.Errorf("marshal 100KB = %s", b)
	}
}

// TestUnmarshalWithoutAllocating: a quoted suffixed value parses over
// the token's bytes.
func TestUnmarshalWithoutAllocating(t *testing.T) {
	rate, size := []byte(`"48MBIT/s"`), []byte(`" 1.5 MB "`)
	var (
		r Rate
		b Bytes
	)
	allocs := testing.AllocsPerRun(100, func() {
		if r.UnmarshalJSON(rate) != nil || b.UnmarshalJSON(size) != nil {
			t.Fatal("unmarshal failed")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per Rate+Bytes unmarshal, want 0", allocs)
	}
	if r != 48*Mbps || b != KiloBytes(1500) {
		t.Errorf("decoded %v, %v", r, b)
	}
}

// TestSuffixMatchAgreesWithToLower: the byte-wise suffix match gives
// what matching the strings.ToLower and strings.TrimSpace form did — the
// same value, or the same error text — except for a Kelvin sign, the
// one non-ASCII rune whose lower case is an ASCII letter: it no longer
// spells a k.
func TestSuffixMatchAgreesWithToLower(t *testing.T) {
	inputs := []string{
		"48Mbit/s", "48 MBIT/S", " 48mb/s\t", "1.5Gbps", "2KBPS", "9600b/s", "9600bps", "bps", "-3bit/s",
		"100KB", "1.5mb", "512B", " 7 gB ", "kb", "60\\u004BB", "1e3b", "0x1p4KB", "Inf", "NaNKB", "+5MB",
		"5ms", "250US", "80ns", "1.5S", "3", "1e400s", "ms", "x", "", " ", "5 furlongs", "5\vs\f",
		"250µs", "250µS", "250 µs", "\u00a05ms\u2003", "5\u0085KB", "5\u039cS", "5\u03bcs", "\uff15MB",
		"\u00c0MB", "\xffMB", "5\xe2\xc2\xb5s", "5\xb5s", "5\u017f", "\u212a",
	}
	tables := map[string][]suffix{"rate": rateSuffixes, "size": bytesSuffixes}
	for name, table := range tables {
		for _, in := range inputs {
			v, err := parseSuffixed([]byte(in), table)
			rv, rerr := parseToLower(in, table)
			if fmt.Sprint(err) != fmt.Sprint(rerr) || (err == nil && !sameFloat(v, rv)) {
				t.Errorf("%s %q: got (%v, %v), the ToLower form gives (%v, %v)", name, in, v, err, rv, rerr)
			}
		}
	}
	if v, err := parseSuffixed([]byte("60\u212aB"), bytesSuffixes); err == nil {
		t.Errorf("60 Kelvin-sign B parsed as %v, want an error", v)
	}
}

// parseToLower is the suffix match that lower-cased and trimmed the
// string first.
func parseToLower(s string, suffixes []suffix) (float64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	for _, e := range suffixes {
		if rest, ok := strings.CutSuffix(t, e.suf); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("units: bad value in %q: %w", s, err)
			}
			return v * e.scale, nil
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: %q has no recognized unit suffix", s)
	}
	return v, nil
}

func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
