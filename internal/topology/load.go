package topology

import (
	"fmt"
	"io"
	"os"

	"bufqos/internal/jsonscan"
)

// A scenario file is the JSON encoding of Topology itself: the field
// tags on Topology, Link, Flow and Event are the schema. Rates and
// sizes use the suffixed wire encoding the qosd control plane speaks
// ("48Mbit/s", "100KB"; internal/units), a flow's contract is the same
// {"peak","token","bucket"} object a qosd join carries, and times
// (propagation delays, event times) are plain numbers of seconds.
// Each of these parses back to the exact value Write wrote.

// Parse reads and validates a JSON scenario. Unknown fields, derived
// ones (a flow's ID and resolved Route) included, and data after the
// scenario are rejected so typos in hand-written files surface
// immediately.
func Parse(r io.Reader) (*Topology, error) {
	t := &Topology{}
	if err := jsonscan.Decode(r, t); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
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
