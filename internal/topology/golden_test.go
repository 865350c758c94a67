package topology_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufqos/internal/topology"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens from the current engine")

// TestResultGoldens pins the engine's small-n results byte for byte:
// every shipped scenario is run short and its full Result (per-flow and
// per-link counters, delays, goodput, rejections, event count) is
// compared against a committed JSON golden. The goldens were generated
// before the flow-state refactor (map-based TCP send records,
// pointer-array collectors), so this test proves the index-based flow
// tables reproduce the old data plane exactly. Regenerate deliberately
// with `go test ./internal/topology -run TestResultGoldens -update-goldens`.
func TestResultGoldens(t *testing.T) {
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "topologies", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) == 0 {
		t.Fatal("no shipped scenarios found under topologies/")
	}
	for _, path := range scenarios {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			topo, err := topology.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := topology.Run(t.Context(), topo, topology.Options{
				Duration: 3,
				Seed:     42,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(&res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			goldenPath := filepath.Join("testdata", "goldens", name)
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("result diverges from the committed golden %s at %s;\nif the change is intentional, regenerate with -update-goldens and explain the divergence in the commit", goldenPath, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line in which got differs from want, with
// both sides: on an indented JSON result it reads as the field that
// moved, e.g. `line 12: golden "Events": 365598, got "Events": 331815`.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		gl, wl := "(end)", "(end)"
		if i < len(g) {
			gl = strings.TrimSpace(g[i])
		}
		if i < len(w) {
			wl = strings.TrimSpace(w[i])
		}
		if gl != wl {
			return fmt.Sprintf("line %d: golden %s, got %s", i+1, wl, gl)
		}
	}
	return "no differing line"
}
