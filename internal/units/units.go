// Package units provides the units of measure used throughout the
// simulator: data sizes in bytes and data rates in bits per second.
// Simulated time is a plain float64 number of seconds throughout.
//
// The paper (Guérin et al., SIGCOMM '98) states buffer sizes in KBytes
// and MBytes, rates in Mbits/s, and analyses flows at bit granularity.
// To avoid unit mistakes, all conversions go through this package.
package units

import "fmt"

// Rate is a data rate in bits per second.
type Rate float64

// Common rate constructors.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
)

// MbitsPerSecond returns a Rate from a value expressed in Mbits/s, the
// unit used in the paper's tables.
func MbitsPerSecond(v float64) Rate { return Rate(v * 1e6) }

// BitsPerSecond reports the rate as a plain float64 in bits/s.
func (r Rate) BitsPerSecond() float64 { return float64(r) }

// BytesPerSecond reports the rate in bytes/s.
func (r Rate) BytesPerSecond() float64 { return float64(r) / 8 }

// Mbits reports the rate in Mbits/s.
func (r Rate) Mbits() float64 { return float64(r) / 1e6 }

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3gGb/s", float64(r)/1e9)
	case r >= Mbps:
		return fmt.Sprintf("%.3gMb/s", float64(r)/1e6)
	case r >= Kbps:
		return fmt.Sprintf("%.3gKb/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.3gb/s", float64(r))
	}
}

// Bytes is a data size in bytes. Buffer occupancies, thresholds, and
// packet sizes are all accounted in bytes.
type Bytes int64

// Common size constructors. The paper uses decimal KBytes/MBytes
// (50 KBytes = 50,000 bytes); we follow that convention.
const (
	Byte   Bytes = 1
	KBytes       = 1000 * Byte
	MBytes       = 1000 * KBytes
)

// KiloBytes returns a size from a value in (decimal) KBytes.
func KiloBytes(v float64) Bytes { return Bytes(v * 1000) }

// MegaBytes returns a size from a value in (decimal) MBytes.
func MegaBytes(v float64) Bytes { return Bytes(v * 1e6) }

// Bits reports the size in bits.
func (b Bytes) Bits() float64 { return float64(b) * 8 }

// KB reports the size in decimal KBytes.
func (b Bytes) KB() float64 { return float64(b) / 1000 }

// MB reports the size in decimal MBytes.
func (b Bytes) MB() float64 { return float64(b) / 1e6 }

// String formats the size with an adaptive unit.
func (b Bytes) String() string {
	switch {
	case b >= MBytes:
		return fmt.Sprintf("%.3gMB", float64(b)/1e6)
	case b >= KBytes:
		return fmt.Sprintf("%.3gKB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// TransmissionTime returns the time, in seconds, needed to transmit b
// bytes at rate r. It panics if r is not positive: a zero-rate link
// would silently wedge the event loop otherwise.
func TransmissionTime(b Bytes, r Rate) float64 {
	if r <= 0 {
		panic("units: non-positive rate in TransmissionTime")
	}
	return b.Bits() / r.BitsPerSecond()
}

// BytesAtRate returns how many whole bytes rate r delivers in d seconds.
func BytesAtRate(r Rate, d float64) Bytes {
	if d < 0 {
		panic("units: negative duration in BytesAtRate")
	}
	return Bytes(r.BytesPerSecond() * d)
}
