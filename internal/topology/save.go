package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Write encodes a scenario in the schema Parse reads, so a
// programmatically built Topology — a fuzzer's shrunk reproducer, a
// generated benchmark — can be replayed with `qnet -topology
// file.json`. For a validated t, Parse(Write(t)) is bit-identical to t:
// every rate, size and time parses back to the value written, and the
// defaults Validate filled in (link names and schemes, source kinds,
// average rates) are written explicitly, which keeps the file
// self-describing.
func Write(w io.Writer, t *Topology) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("topology %s: %w", t.Name, err)
	}
	return nil
}

// Save writes the scenario to path via Write, creating or truncating
// the file.
func Save(path string, t *Topology) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
