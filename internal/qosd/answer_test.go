package qosd

import (
	"bytes"
	"encoding/json"
	"testing"
)

// answerSeeds are the strings the answer writer must escape as
// encoding/json does: HTML specials, the line separators, invalid
// UTF-8, control bytes, quotes and backslashes, and the empty string.
func answerSeeds() []string {
	return []string{
		"", "c0-17", "<script>&amp;</script>", "a\u2028b\u2029c", "bad\xff\xc3(\xed\xa0\x80",
		"\x00\x01\b\f\n\r\t\x1f\x7f", `quote " backslash \ slash /`, "é😀\ufffd",
		"trunc\xe2\x82", "\xf0\x9f\x98",
	}
}

// encodeRef is what json.Encoder.Encode writes for v.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkAnswers holds the answer writer to encoding/json on one flow
// name, rejection and error message: a Decision, a BatchResponse of
// results with and without the error (and of none), and an apiError.
func checkAnswers(t *testing.T, flow []byte, admitted bool, link, reason, errMsg string) {
	d := Decision{Flow: string(flow), Admitted: admitted, Link: link, Reason: reason}
	if got, want := append(appendResult(nil, flow, admitted, link, reason, ""), '\n'), encodeRef(t, d); !bytes.Equal(got, want) {
		t.Fatalf("Decision %+v:\nwriter  %q\nencoder %q", d, got, want)
	}

	results := []BatchResult{{Decision: d}, {Decision: d, Error: errMsg}, {Decision: Decision{Flow: string(flow)}, Error: errMsg}}
	for n := 0; n <= len(results); n++ {
		got := openBatch(nil)
		for _, r := range results[:n] {
			got = appendResult(nextResult(got), flow, r.Admitted, r.Link, r.Reason, r.Error)
		}
		got = append(closeBatch(got), '\n')
		if want := encodeRef(t, BatchResponse{Decisions: results[:n]}); !bytes.Equal(got, want) {
			t.Fatalf("BatchResponse of %d:\nwriter  %q\nencoder %q", n, got, want)
		}
	}

	if got, want := append(appendError(nil, errMsg), '\n'), encodeRef(t, apiError{Error: errMsg}); !bytes.Equal(got, want) {
		t.Fatalf("apiError %q:\nwriter  %q\nencoder %q", errMsg, got, want)
	}
}

// TestDecisionAnswersMatchReference: the answer writer's bytes are
// encoding/json's for every seed string in every field.
func TestDecisionAnswersMatchReference(t *testing.T) {
	for _, s := range answerSeeds() {
		checkAnswers(t, []byte(s), true, "", "", s)
		checkAnswers(t, []byte(s), false, s, "buffer-limited", "")
		checkAnswers(t, []byte("f"), false, "a->b", s, "unknown link "+s)
	}
}

// FuzzDecisionAnswers checks the answer writer against encoding/json
// on any flow name, link, reason and error message.
func FuzzDecisionAnswers(f *testing.F) {
	for _, s := range answerSeeds() {
		f.Add([]byte(s), false, "a->b", "bandwidth-limited", s)
		f.Add([]byte("f"), true, "", s, "")
	}
	f.Fuzz(func(t *testing.T, flow []byte, admitted bool, link, reason, errMsg string) {
		checkAnswers(t, flow, admitted, link, reason, errMsg)
	})
}
