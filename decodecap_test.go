package bufqos_test

import (
	"io"
	"strings"
	"testing"

	"bufqos/internal/experiment"
	"bufqos/internal/jsonscan"
	"bufqos/internal/online"
	"bufqos/internal/topology"
)

// TestLoadersRefuseStreamsOverTheDecodeCap: the scenario, workload and
// instance parsers read through jsonscan.Decode, so a stream one byte
// longer than jsonscan.MaxDecode is refused with the cap named, however
// little of it is JSON.
func TestLoadersRefuseStreamsOverTheDecodeCap(t *testing.T) {
	for _, c := range []struct {
		name  string
		parse func(io.Reader) error
	}{
		{"topology.Parse", func(r io.Reader) error { _, err := topology.Parse(r); return err }},
		{"experiment.ParseWorkload", func(r io.Reader) error { _, err := experiment.ParseWorkload(r); return err }},
		{"online.Parse", func(r io.Reader) error { _, err := online.Parse(r); return err }},
	} {
		const doc = "{}"
		r := io.MultiReader(strings.NewReader(doc), &blanks{n: jsonscan.MaxDecode + 1 - int64(len(doc))})
		if err := c.parse(r); err == nil || !strings.Contains(err.Error(), "64 MiB cap") {
			t.Errorf("%s of MaxDecode+1 bytes: %v, want an error naming the cap", c.name, err)
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
