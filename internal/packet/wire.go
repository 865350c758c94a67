package packet

import (
	"fmt"

	"bufqos/internal/jsonscan"
)

// FlowSpec's JSON form rides the units wire encodings ("48Mbit/s",
// "100KB"), so one (σ, ρ, peak) contract is spelled identically in
// topology files, qosd request bodies, and daemon snapshots.

// MarshalJSON encodes the contract as
// {"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}; a zero peak
// (unbounded) is omitted. The encoder is hand-assembled because specs
// are the hot field of the qosd control plane — batch joins marshal
// and parse thousands of them per second.
func (s FlowSpec) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, '{')
	if s.PeakRate != 0 {
		b, err := s.PeakRate.MarshalJSON()
		if err != nil {
			return nil, err
		}
		buf = append(append(append(buf, `"peak":`...), b...), ',')
	}
	b, err := s.TokenRate.MarshalJSON()
	if err != nil {
		return nil, err
	}
	buf = append(append(append(buf, `"token":`...), b...), ',')
	if b, err = s.BucketSize.MarshalJSON(); err != nil {
		return nil, err
	}
	buf = append(append(append(buf, `"bucket":`...), b...), '}')
	return buf, nil
}

// UnmarshalJSON decodes the wire form through ScanFlowSpec: the
// document must be one spec (or null) and nothing else.
func (s *FlowSpec) UnmarshalJSON(data []byte) error {
	var sc jsonscan.Scanner
	sc.Reset(data)
	spec, err := ScanFlowSpec(&sc)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return fmt.Errorf("flow spec: %w", err)
	}
	*s = spec
	return nil
}

// ScanFlowSpec reads one spec at the scanner: the wire object, or null
// for the zero spec. It accepts what encoding/json accepts decoding
// into a struct of units.Rate "peak" and "token" and units.Bytes
// "bucket" fields with unknown fields disallowed: keys match as struct
// fields do, the last of a repeated key wins, and each value is a
// string or number handed unchanged to its units decoder. Unknown keys
// are rejected so misspelled contracts fail loudly; semantic validation
// stays with Validate, which callers run after decoding.
func ScanFlowSpec(sc *jsonscan.Scanner) (FlowSpec, error) {
	var s FlowSpec
	if sc.Null() {
		return s, nil
	}
	err := sc.Object(func(key []byte) error {
		tok, err := sc.Scalar()
		if err != nil {
			return err
		}
		switch {
		case jsonscan.Match(key, "peak"):
			return s.PeakRate.UnmarshalJSON(tok)
		case jsonscan.Match(key, "token"):
			return s.TokenRate.UnmarshalJSON(tok)
		case jsonscan.Match(key, "bucket"):
			return s.BucketSize.UnmarshalJSON(tok)
		}
		return fmt.Errorf("unknown field %q", string(key))
	})
	return s, err
}
