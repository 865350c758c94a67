package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRejectsOversizedInstances: an instance too large for the
// exact solver is an error, which main reports with exit status 1, not
// a panic.
func TestReplayRejectsOversizedInstances(t *testing.T) {
	paths, err := filepath.Glob("../../internal/online/testdata/oversized/*.json")
	if err != nil || len(paths) != 2 {
		t.Fatalf("oversized instance files: %v, %v", paths, err)
	}
	for _, path := range paths {
		if err := replay(io.Discard, path, ""); err == nil {
			t.Errorf("replay %s: no error", path)
		}
	}
}

// TestReplayJudgesBoundsInTheirModel: replay reports a ratio above a
// policy's proven bound as a violation only on an instance inside the
// bound's model.
func TestReplayJudgesBoundsInTheirModel(t *testing.T) {
	cases := []struct {
		name, policy, instance string
		want, never            string
	}{
		// One class whose values differ: cseg's bound assumes one value
		// per class, so its ratio of 10 breaks no claim.
		{"cseg-unfixed-values", "cseg",
			`{"model":"shared","queues":1,"buffer":1,"arrivals":[{"at":0,"queue":0,"value":1},{"at":0,"queue":0,"value":1},{"at":0,"queue":0,"value":1},{"at":0,"queue":0,"value":10}]}`,
			"outside the bound's model", "VIOLATES"},
		// The same arrivals at one value lie inside the model.
		{"cseg-fixed-values", "cseg",
			`{"model":"shared","queues":1,"buffer":1,"arrivals":[{"at":0,"queue":0,"value":1},{"at":0,"queue":0,"value":1},{"at":0,"queue":0,"value":1},{"at":0,"queue":0,"value":1}]}`,
			"ratio = 1 ", "outside"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), c.name+".json")
		if err := os.WriteFile(path, []byte(c.instance), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := replay(&out, path, c.policy); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(out.String(), c.want) || strings.Contains(out.String(), c.never) {
			t.Errorf("%s: want %q and no %q in\n%s", c.name, c.want, c.never, out.String())
		}
	}
}
