package jsonscan

import (
	"bytes"
	"encoding/json"
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
