package main

import (
	"reflect"
	"testing"

	"bufqos/internal/units"
)

func TestParseBuffers(t *testing.T) {
	got, err := parseBuffers("500, 1000,2.5e3")
	want := []units.Bytes{units.KiloBytes(500), units.MegaBytes(1), units.KiloBytes(2500)}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseBuffers = %v, %v; want %v", got, err, want)
	}
	// Trailing garbage was once read as the number before it.
	for _, bad := range []string{"500x", "500,,1000", "", "1e", "5 00"} {
		if got, err := parseBuffers(bad); err == nil {
			t.Errorf("parseBuffers(%q) = %v, want an error", bad, got)
		}
	}
}
