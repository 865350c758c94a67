package units

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file gives the unit types a human-readable JSON wire form —
// "48Mbit/s", "100KB", "5ms" — shared by the topology loader and the
// qosd control-plane API, so a (σ, ρ) contract means the same bytes in
// a scenario file, a join request, and a daemon snapshot.
//
// Marshalling always picks the largest unit that represents the value
// exactly (falling back to the base unit, which always does), so every
// value round-trips bit-for-bit. Unmarshalling additionally accepts a
// bare JSON number in the base unit (bits/s, bytes, seconds).

// jsonScaled renders v as value/scale + suffix when that division is
// exact under round-trip, or "" when it is not.
func jsonScaled(v, scale float64, suffix string) string {
	s := v / scale
	if s*scale != v {
		return ""
	}
	return strconv.FormatFloat(s, 'g', -1, 64) + suffix
}

// unquote strips the quotes of a JSON string literal, reporting whether
// data was one. encoding/json hands UnmarshalJSON the raw token, so
// stripping the quotes suffices — escapes never appear in unit strings.
func unquote(data []byte) ([]byte, bool) {
	if len(data) >= 2 && data[0] == '"' && data[len(data)-1] == '"' {
		return data[1 : len(data)-1], true
	}
	return data, false
}

type suffix struct {
	suf   string // lower case
	scale float64
}

// parseSuffixed splits a "<number><suffix>" form against a suffix table,
// longest suffix first (the caller orders the table). Suffixes match
// ASCII case-insensitively over the bytes, without allocating, and
// surrounding space is ignored.
func parseSuffixed(s []byte, suffixes []suffix) (float64, error) {
	t := bytes.TrimSpace(s)
	for _, e := range suffixes {
		if n := len(t) - len(e.suf); n >= 0 && equalLower(t[n:], e.suf) {
			v, err := strconv.ParseFloat(string(bytes.TrimSpace(t[:n])), 64)
			if err != nil {
				return 0, fmt.Errorf("units: bad value in %q: %w", string(s), lowerNum(err))
			}
			return v * e.scale, nil
		}
	}
	// ParseFloat ignores case, so t parses as its lower-case form would.
	v, err := strconv.ParseFloat(string(t), 64)
	if err != nil {
		return 0, fmt.Errorf("units: %q has no recognized unit suffix", string(s))
	}
	return v, nil
}

// equalLower reports whether s equals lower-case lower, ignoring the
// case of the ASCII letters in s.
func equalLower(s []byte, lower string) bool {
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// lowerNum spells a strconv error's input in lower case, as the error
// texts always have.
func lowerNum(err error) error {
	if ne, ok := err.(*strconv.NumError); ok {
		return &strconv.NumError{Func: ne.Func, Num: strings.ToLower(ne.Num), Err: ne.Err}
	}
	return err
}

// MarshalJSON encodes the rate as a suffixed string, e.g. "48Mbit/s".
func (r Rate) MarshalJSON() ([]byte, error) {
	v := float64(r)
	for _, e := range []struct {
		scale float64
		suf   string
	}{{1e9, "Gbit/s"}, {1e6, "Mbit/s"}, {1e3, "Kbit/s"}} {
		if v >= e.scale || v <= -e.scale {
			if s := jsonScaled(v, e.scale, e.suf); s != "" {
				return []byte(`"` + s + `"`), nil
			}
		}
	}
	return []byte(`"` + strconv.FormatFloat(v, 'g', -1, 64) + `bit/s"`), nil
}

var rateSuffixes = []suffix{
	{"gbit/s", 1e9}, {"gb/s", 1e9}, {"gbps", 1e9},
	{"mbit/s", 1e6}, {"mb/s", 1e6}, {"mbps", 1e6},
	{"kbit/s", 1e3}, {"kb/s", 1e3}, {"kbps", 1e3},
	{"bit/s", 1}, {"b/s", 1}, {"bps", 1},
}

// UnmarshalJSON accepts "48Mbit/s" (also Mb/s, mbps, Kbit/s, Gbit/s,
// bit/s forms) or a bare number in bits/s.
func (r *Rate) UnmarshalJSON(data []byte) error {
	s, quoted := unquote(data)
	if !quoted {
		v, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return fmt.Errorf("units: rate %s: %w", string(data), err)
		}
		*r = Rate(v)
		return nil
	}
	v, err := parseSuffixed(s, rateSuffixes)
	if err != nil {
		return fmt.Errorf("units: rate %w", err)
	}
	*r = Rate(v)
	return nil
}

// MarshalJSON encodes the size as a suffixed string, e.g. "100KB"
// (decimal units, matching the paper's convention).
func (b Bytes) MarshalJSON() ([]byte, error) {
	v := int64(b)
	switch {
	case v%1e9 == 0 && v != 0:
		return []byte(fmt.Sprintf(`"%dGB"`, v/1e9)), nil
	case v%1e6 == 0 && v != 0:
		return []byte(fmt.Sprintf(`"%dMB"`, v/1e6)), nil
	case v%1e3 == 0 && v != 0:
		return []byte(fmt.Sprintf(`"%dKB"`, v/1e3)), nil
	default:
		return []byte(fmt.Sprintf(`"%dB"`, v)), nil
	}
}

var bytesSuffixes = []suffix{
	{"gb", 1e9}, {"mb", 1e6}, {"kb", 1e3}, {"b", 1},
}

// UnmarshalJSON accepts "100KB", "1.5MB", "512B" (decimal units) or a
// bare number in bytes. Fractional results truncate to whole bytes,
// matching KiloBytes/MegaBytes.
func (b *Bytes) UnmarshalJSON(data []byte) error {
	s, quoted := unquote(data)
	if !quoted {
		v, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return fmt.Errorf("units: size %s: %w", string(data), err)
		}
		*b = Bytes(v)
		return nil
	}
	v, err := parseSuffixed(s, bytesSuffixes)
	if err != nil {
		return fmt.Errorf("units: size %w", err)
	}
	*b = Bytes(v)
	return nil
}

// MarshalJSON encodes the span as a suffixed string, e.g. "5ms".
func (t Time) MarshalJSON() ([]byte, error) {
	v := float64(t)
	abs := v
	if abs < 0 {
		abs = -abs
	}
	if v != 0 && abs < 1 {
		for _, e := range []struct {
			scale float64
			suf   string
		}{{1e-3, "ms"}, {1e-6, "us"}, {1e-9, "ns"}} {
			if abs >= e.scale {
				if s := jsonScaled(v, e.scale, e.suf); s != "" {
					return []byte(`"` + s + `"`), nil
				}
			}
		}
	}
	return []byte(`"` + strconv.FormatFloat(v, 'g', -1, 64) + `s"`), nil
}

var timeSuffixes = []suffix{
	{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
}

// UnmarshalJSON accepts "5ms", "250us", "1.5s", "80ns" or a bare number
// in seconds.
func (t *Time) UnmarshalJSON(data []byte) error {
	s, quoted := unquote(data)
	if !quoted {
		v, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return fmt.Errorf("units: time %s: %w", string(data), err)
		}
		*t = Time(v)
		return nil
	}
	v, err := parseSuffixed(s, timeSuffixes)
	if err != nil {
		return fmt.Errorf("units: time %w", err)
	}
	*t = Time(v)
	return nil
}
