package core

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// WFQDelayBound returns the PGPS worst-case delay for a
// (σ, ρ)-conformant flow scheduled with weight ρ on a link of rate r:
// σ/ρ + Lmax/R (plus one packet of non-preemption). This is the
// "tight delay guarantees" the paper trades away.
func WFQDelayBound(spec packet.FlowSpec, r units.Rate, mtu units.Bytes) float64 {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if r <= 0 {
		panic(fmt.Sprintf("core: non-positive link rate %v", r))
	}
	return spec.BucketSize.Bits()/spec.TokenRate.BitsPerSecond() +
		2*mtu.Bits()/r.BitsPerSecond()
}
