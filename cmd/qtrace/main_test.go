package main

import (
	"math"
	"testing"
)

// TestCheckDuration: qtrace refuses a horizon it cannot reach, and
// keeps zero, which traces the instant t = 0 alone.
func TestCheckDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), -1} {
		if checkDuration(d) == nil {
			t.Errorf("checkDuration(%v) = nil, want an error", d)
		}
	}
	for _, d := range []float64{0, 5} {
		if err := checkDuration(d); err != nil {
			t.Errorf("checkDuration(%v) = %v", d, err)
		}
	}
}
