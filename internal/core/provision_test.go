package core

import (
	"fmt"
	"math"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func TestWorstCaseFIFODelayOC48(t *testing.T) {
	// The §1 quote: 1 MB buffer on OC-48 (2.4 Gb/s) -> < 3.5 ms.
	d := WorstCaseFIFODelay(units.MegaBytes(1), units.Rate(2.4e9), 500)
	if d >= 0.0035 {
		t.Errorf("OC-48 bound %v, paper claims < 3.5 ms", d)
	}
	// And the 48 Mb/s testbed: 1 MB -> ≈ 167 ms.
	d48 := WorstCaseFIFODelay(units.MegaBytes(1), units.MbitsPerSecond(48), 500)
	if math.Abs(d48-(8e6+4000)/48e6) > 1e-12 {
		t.Errorf("48 Mb/s bound %v", d48)
	}
}

func TestWFQDelayBound(t *testing.T) {
	s := spec(50, 8) // 50KB bucket, 8Mb/s
	d := WFQDelayBound(s, units.MbitsPerSecond(48), 500)
	want := 400000.0/8e6 + 2*4000.0/48e6
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("WFQ bound %v, want %v", d, want)
	}
	// WFQ's bound is rate-dependent and typically far tighter than the
	// shared-buffer FIFO bound at equal B — the §1 trade-off.
	fifo := WorstCaseFIFODelay(units.MegaBytes(2), units.MbitsPerSecond(48), 500)
	if d >= fifo {
		t.Errorf("WFQ bound %v not tighter than FIFO bound %v at 2MB", d, fifo)
	}
}

func TestDelayBoundValidation(t *testing.T) {
	for i, f := range []func(){
		func() { WorstCaseFIFODelay(1000, 0, 500) },
		func() { WFQDelayBound(packet.FlowSpec{}, units.Mbps, 500) },
		func() { WFQDelayBound(spec(10, 1), 0, 500) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// WorstCaseFIFODelay returns the §1 bound on FIFO queueing delay: the
// time to drain a full buffer, B·8/R, plus one maximum packet of
// non-preemption. This is the figure behind "the worst case delay
// caused by a 1MByte buffer feeding an OC-48 link is less than
// 3.5msec".
func WorstCaseFIFODelay(b units.Bytes, r units.Rate, mtu units.Bytes) float64 {
	if r <= 0 {
		panic(fmt.Sprintf("core: non-positive link rate %v", r))
	}
	return (b.Bits() + mtu.Bits()) / r.BitsPerSecond()
}
