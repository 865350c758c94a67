package main

import (
	"testing"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// TestFIFOAdmitsWhatEquation9Allows pins the example's printed claims
// against the eq. 9 closed form, which the controllers do not use: at
// every buffer size the FIFO+BM controller admits exactly the largest n
// whose Σσ/(1−u) fits, refusing the next one as buffer-limited; the
// count grows with the buffer and stays below the bandwidth bound R/ρ,
// which WFQ reaches with the example's 2 MB.
func TestFIFOAdmitsWhatEquation9Allows(t *testing.T) {
	bound := int(linkRate / request.TokenRate)
	if wfq, last := fill(core.DisciplineWFQ, bufSize); wfq.NumFlows() != bound || last != core.BandwidthLimited {
		t.Errorf("WFQ with %v admitted %d (%v), want the bandwidth bound %d", bufSize, wfq.NumFlows(), last, bound)
	}
	// fits reports whether n requests are lossless in buffer b by eq. 9.
	fits := func(n int, b units.Bytes) bool {
		specs := make([]packet.FlowSpec, n)
		for i := range specs {
			specs[i] = request
		}
		need, err := core.RequiredBufferFIFO(specs, linkRate)
		return err == nil && need <= b
	}
	prev := 0
	for _, b := range buffers {
		c, last := fill(core.DisciplineFIFO, b)
		n := c.NumFlows()
		if !fits(n, b) || fits(n+1, b) || last != core.BufferLimited {
			t.Errorf("buffer %v: FIFO+BM admitted %d (%v); eq. 9 fits %d: %v, %d: %v", b, n, last, n, fits(n, b), n+1, fits(n+1, b))
		}
		if n <= prev || n >= bound {
			t.Errorf("buffer %v: FIFO+BM admitted %d, want more than %d and fewer than %d", b, n, prev, bound)
		}
		prev = n
	}
}
