package main

import (
	"path/filepath"
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
		if err := replay(path, ""); err == nil {
			t.Errorf("replay %s: no error", path)
		}
	}
}
