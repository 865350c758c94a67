package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestStringMatchesEncodingJSON: a string decodes to what json.Unmarshal
// gives, and is refused where json.Unmarshal refuses it.
func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`"plain"`, `""`, `"é😀"`, `"a\"b\\c\/d\be\ff\ng\rh\ti"`, `"Aé€"`,
		`"😀"`, `"\ud800"`, `"\udc00x"`, `"\ud800A"`, `"\ud800𐀀"`, `"\ud800\"`,
		"\"bad\xff\xfe\"", "\"\xed\xa0\x80\"", "\"\xef\xbf\xbd\"", "\"trunc\xe2\x82\"",
		`"\'"`, `"\x"`, `"\u12"`, `"\u12G4"`, "\"tab\tin\"", "\"nul\x00\"", `"open`, `"`, `"\`, ` "spaced" `,
	} {
		var want string
		wantErr := json.Unmarshal([]byte(in), &want)
		var sc Scanner
		sc.Reset([]byte(in))
		got, err := sc.String()
		if err == nil {
			err = sc.End()
		}
		if (err == nil) != (wantErr == nil) || err == nil && string(got) != want {
			t.Errorf("%q: got %q (%v), encoding/json %q (%v)", in, got, err, want, wantErr)
		}
	}
}

// TestScalarMatchesJSONSyntax: a number or string token is taken whole
// exactly when it is valid JSON.
func TestScalarMatchesJSONSyntax(t *testing.T) {
	for _, in := range []string{
		`0`, `-0`, `12`, `1.5`, `-1.5e10`, `1E+2`, `2e-3`, `01`, `1.`, `.5`, `-`, `+1`, `1e`, `1e+`,
		`0x10`, `Infinity`, `NaN`, `"60KB"`, `"60KB"`, `null`, `true`, `[1]`, `{}`,
	} {
		valid := json.Valid([]byte(in))
		var sc Scanner
		sc.Reset([]byte(in))
		tok, err := sc.Scalar()
		if err == nil {
			err = sc.End()
		}
		isScalar := in[0] == '"' || in[0] == '-' || '0' <= in[0] && in[0] <= '9'
		if want := valid && isScalar; (err == nil) != want {
			t.Errorf("%s: scanned %q (%v), want accepted %v", in, tok, err, want)
		}
		if err == nil && !bytes.Equal(tok, []byte(in)) {
			t.Errorf("%s: token %q", in, tok)
		}
	}
}

// TestMatchIsEncodingJSONFieldMatch: Match accepts a key exactly when
// encoding/json would decode it into the field.
func TestMatchIsEncodingJSONFieldMatch(t *testing.T) {
	for _, key := range []string{
		"links", "LINKS", "Links", "linkſ", "linKs", "ſ", "link", "linkss", "lınks", "lİnks",
		"flow", "fLoW", "ſlow", "spec", "ſpec", "SPEC", "ſpeK", "spe", "",
		"linKs", "peaK", "K", "pea\xff", "Keap",
	} {
		for _, name := range []string{"links", "flow", "spec", "peak"} {
			body, _ := json.Marshal(map[string]int{key: 1})
			var st struct {
				Links int `json:"links"`
				Flow  int `json:"flow"`
				Spec  int `json:"spec"`
				Peak  int `json:"peak"`
			}
			json.Unmarshal(body, &st)
			want := map[string]int{"links": st.Links, "flow": st.Flow, "spec": st.Spec, "peak": st.Peak}[name] == 1
			if got := Match([]byte(key), name); got != want {
				t.Errorf("Match(%q, %q) = %v, encoding/json %v", key, name, got, want)
			}
		}
	}
}

// TestDecodeIsStrict: Decode takes exactly one value, refuses unknown
// members, and refuses anything but white space after the value.
func TestDecodeIsStrict(t *testing.T) {
	type doc struct{ A int }
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`{"a":1}`, true},
		{" {\"A\":1} \n\t", true},
		{`{"a":1,"b":2}`, false},
		{`{"a":1} {"a":2}`, false},
		{`{"a":1} not json`, false},
		{`{"a":1}]`, false},
		{`{"a":1`, false},
		{``, false},
	} {
		var d doc
		if err := Decode(strings.NewReader(c.in), &d); (err == nil) != c.ok {
			t.Errorf("Decode(%q) = %v, want ok=%v", c.in, err, c.ok)
		} else if c.ok && d.A != 1 {
			t.Errorf("Decode(%q) decoded %+v", c.in, d)
		}
	}
}

// TestDecodeCapsItsInput: a document padded with white space to exactly
// MaxDecode bytes decodes; one byte more is refused with an error that
// names the cap, and a longer stream is not read past it.
func TestDecodeCapsItsInput(t *testing.T) {
	const doc = `{"a":1}`
	for _, c := range []struct {
		over int64 // stream length minus MaxDecode
		ok   bool
	}{{0, true}, {1, false}, {1 << 20, false}} {
		pad := &blanks{n: MaxDecode + c.over - int64(len(doc))}
		var d struct{ A int }
		err := Decode(io.MultiReader(strings.NewReader(doc), pad), &d)
		switch {
		case c.ok && (err != nil || d.A != 1):
			t.Errorf("MaxDecode%+d bytes: decoded %+v, %v", c.over, d, err)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "64 MiB cap")):
			t.Errorf("MaxDecode%+d bytes: %v, want an error naming the cap", c.over, err)
		case !c.ok && pad.n < c.over-1:
			t.Errorf("MaxDecode%+d bytes: read %d bytes past the cap", c.over, c.over-pad.n)
		}
	}
}

// TestDecodeDiscardsLeadingBlanks: white space before the value counts
// toward the cap but is not buffered, so a stream of MaxDecode+1 blanks
// is refused naming the cap after well under 1 MB of allocation, and an
// error's offset still counts from the start of the stream.
func TestDecodeDiscardsLeadingBlanks(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := Decode(&blanks{n: MaxDecode + 1}, new(struct{}))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "64 MiB cap") {
		t.Errorf("MaxDecode+1 blanks: %v, want an error naming the cap", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("MaxDecode+1 blanks allocated %d bytes, want under 1 MB", alloc)
	}
	for _, in := range []string{" \n\t\r {\"a\": x}", "   [1,", "\n\n {\"a\": \"s\"}", "  ", "\t}"} {
		var got, want struct{ A int }
		gotErr := Decode(strings.NewReader(in), &got)
		wantErr := json.NewDecoder(strings.NewReader(in)).Decode(&want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("Decode(%q) = %v, want encoding/json's %v", in, gotErr, wantErr)
		}
		var gs, ws *json.SyntaxError
		if errors.As(gotErr, &gs) && errors.As(wantErr, &ws) && gs.Offset != ws.Offset {
			t.Errorf("Decode(%q): syntax error at offset %d, want %d", in, gs.Offset, ws.Offset)
		}
		var gt, wt *json.UnmarshalTypeError
		if errors.As(gotErr, &gt) && errors.As(wantErr, &wt) && gt.Offset != wt.Offset {
			t.Errorf("Decode(%q): type error at offset %d, want %d", in, gt.Offset, wt.Offset)
		}
	}
}

// blanks is a stream of n spaces.
type blanks struct{ n int64 }

func (b *blanks) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), b.n)]
	for i := range p {
		p[i] = ' '
	}
	b.n -= int64(len(p))
	return len(p), nil
}

// TestAppendStringMatchesEncodingJSON: AppendString writes what
// json.Marshal writes for the same string — every single byte, the
// HTML specials, the line separators, invalid UTF-8 — and appends to
// dst without allocating when dst has room.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	ins := []string{"", "plain", "a\"b\\c/d", "<a href='x'>&amp;</a>", "é😀€", "\u2028 \u2029 \u2027\u202a",
		"bad\xff\xfe", "\xed\xa0\x80", "\xef\xbf\xbd", "trunc\xe2\x82", "\xf0\x9f\x98", "nul\x00\x1f\x7f"}
	for c := 0; c < 256; c++ {
		ins = append(ins, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	for _, in := range ins {
		want, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("k:"), in); string(got) != "k:"+string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", in, got[2:], want)
		}
		if got := AppendString(nil, []byte(in)); !bytes.Equal(got, want) {
			t.Errorf("AppendString([]byte(%q)) = %s, encoding/json %s", in, got, want)
		}
	}
	long := []byte(strings.Repeat("é <\xff", 64))
	dst := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { dst = AppendString(dst[:0], long) }); n != 0 {
		t.Errorf("AppendString allocates %v times into a roomy dst", n)
	}
}
