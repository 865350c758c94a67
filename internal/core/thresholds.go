// Package core implements the paper's analytical results: buffer
// threshold computation (Propositions 1 and 2), the FIFO and WFQ
// schedulability regions and buffer requirements (§2.3), and the hybrid
// rate-allocation optimization (Proposition 3 and the §4.1 claim).
//
// Everything here is closed-form arithmetic over flow profiles — the
// simulation packages consume these numbers; the benchmarks check them
// against measured behaviour. Admission against the regions is kept in
// one per-link book, Region, whose sums are added on a join and
// subtracted on a leave: the offline engine's plan keeps bare Regions,
// SerialAdmitter adds the admitted multiset, and ShardedAdmitter puts
// one SerialAdmitter behind each link's mutex, so every admitter
// decides with the same arithmetic.
package core

import (
	"fmt"
	"math"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// PeakRateThreshold returns the §2.1 (Proposition 1) occupancy
// threshold B·ρ/R that guarantees lossless service to a peak-rate-ρ
// conformant flow sharing a FIFO buffer of size B on a link of rate R.
func PeakRateThreshold(rho, r units.Rate, b units.Bytes) units.Bytes {
	if r <= 0 {
		panic(fmt.Sprintf("core: non-positive link rate %v", r))
	}
	return units.Bytes(float64(b) * rho.BitsPerSecond() / r.BitsPerSecond())
}

// LeakyBucketThreshold returns the §2.2 (Proposition 2) threshold
// σ + B·ρ/R that guarantees lossless service to a (σ, ρ)-conformant
// flow.
func LeakyBucketThreshold(spec packet.FlowSpec, r units.Rate, b units.Bytes) units.Bytes {
	return spec.BucketSize + PeakRateThreshold(spec.TokenRate, r, b)
}

// Thresholds computes the per-flow buffer thresholds of §3.2 for a set
// of flows sharing a FIFO buffer of size b on a link of rate r:
// threshold_i = σᵢ + ρᵢ·B/R. Per the paper's footnote 5, when the
// buffer is larger than the sum of these thresholds, all thresholds are
// scaled up proportionally so the buffer is fully partitioned.
func Thresholds(specs []packet.FlowSpec, r units.Rate, b units.Bytes) ([]units.Bytes, error) {
	if r <= 0 {
		return nil, fmt.Errorf("core: non-positive link rate %v", r)
	}
	if b < 0 {
		return nil, fmt.Errorf("core: negative buffer size %v", b)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no flows")
	}
	raw := make([]float64, len(specs))
	var sum float64
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: flow %d: %w", i, err)
		}
		raw[i] = float64(s.BucketSize) + float64(b)*s.TokenRate.BitsPerSecond()/r.BitsPerSecond()
		sum += raw[i]
	}
	if sum < float64(b) && sum > 0 {
		scale := float64(b) / sum
		for i := range raw {
			raw[i] *= scale
		}
	}
	th := make([]units.Bytes, len(specs))
	for i, v := range raw {
		if !(v < math.MaxInt64) {
			return nil, fmt.Errorf("core: flow %d: threshold of %g bytes overflows", i, v)
		}
		th[i] = units.Bytes(math.Round(v))
	}
	return th, nil
}

// RequiredBufferFIFO returns the minimum total buffer (equation 9) for
// the FIFO + threshold scheme to guarantee losslessness to every
// conformant flow:
//
//	B ≥ R·Σσᵢ / (R − Σρᵢ)
//
// It errors when the reserved rates exceed the link (the bandwidth
// constraint of equation 7 fails), since no buffer is then sufficient.
func RequiredBufferFIFO(specs []packet.FlowSpec, r units.Rate) (units.Bytes, error) {
	var sigma float64
	var rho float64
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return 0, fmt.Errorf("core: flow %d: %w", i, err)
		}
		sigma += float64(s.BucketSize)
		rho += s.TokenRate.BitsPerSecond()
	}
	if rho >= r.BitsPerSecond() {
		return 0, fmt.Errorf("core: reserved rate %v ≥ link rate %v: bandwidth limited", units.Rate(rho), r)
	}
	return units.Bytes(math.Ceil(r.BitsPerSecond() * sigma / (r.BitsPerSecond() - rho))), nil
}

// RequiredBufferWFQ returns the minimum total buffer for a per-flow WFQ
// scheduler (equation 6): Σσᵢ.
func RequiredBufferWFQ(specs []packet.FlowSpec) units.Bytes {
	var sum units.Bytes
	for _, s := range specs {
		sum += s.BucketSize
	}
	return sum
}

// BufferInflation returns the §2.3 buffer-cost ratio of FIFO+thresholds
// over WFQ at reserved utilization u = Σρ/R (equation 10): 1/(1−u).
// It returns +Inf at u ≥ 1.
func BufferInflation(u float64) float64 {
	if u < 0 {
		panic(fmt.Sprintf("core: negative utilization %v", u))
	}
	if u >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - u)
}

// ReservedUtilization returns u = Σρᵢ/R.
func ReservedUtilization(specs []packet.FlowSpec, r units.Rate) float64 {
	var rho float64
	for _, s := range specs {
		rho += s.TokenRate.BitsPerSecond()
	}
	return rho / r.BitsPerSecond()
}
