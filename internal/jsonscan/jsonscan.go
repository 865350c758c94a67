// Package jsonscan reads JSON text front to back in one pass, strictly
// (RFC 8259 syntax, nothing after the top-level value) and without
// reflection. It is the decoder under the admission daemon's decision
// bodies and under packet.FlowSpec, which know their shapes and call it
// member by member; values come back as byte slices of the input, so a
// well-formed document decodes without allocating.
//
// Where encoding/json has a rule for decoding into Go values, the
// scanner's helpers follow it, so a caller can promise that it accepts
// exactly what json.Unmarshal into its struct would: Match matches keys
// the way struct fields are matched, and String unescapes as
// encoding/json does, turning invalid UTF-8 and unpaired surrogates
// into U+FFFD.
//
// Decode holds documents read once — scenario, workload and instance
// files and the daemon's snapshots — to the same strictness through
// encoding/json itself.
package jsonscan

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf16"
	"unicode/utf8"
)

// Decode reads one JSON value from r into v as encoding/json does,
// with unknown object members rejected, and fails unless nothing but
// white space follows the value.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, new(*json.SyntaxError)):
		return errors.New("data after the top-level value")
	default:
		return err
	}
}

// Scanner reads one JSON text. The zero value is ready for Reset.
type Scanner struct {
	data []byte
	pos  int
	// arena holds unescaped strings. It is only appended to, so every
	// string String returned stays valid until the next Reset.
	arena []byte
}

// Reset starts reading data, keeping the arena's storage.
func (s *Scanner) Reset(data []byte) {
	s.data, s.pos, s.arena = data, 0, s.arena[:0]
}

// Peek skips white space and returns the next byte, or 0 at the end of
// the input.
func (s *Scanner) Peek() byte {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
		s.pos++
	}
	return 0
}

// End reports an error unless only white space is left.
func (s *Scanner) End() error {
	if s.Peek(); s.pos < len(s.data) {
		return s.errorf("data after the top-level value")
	}
	return nil
}

// Null consumes the literal null if it comes next.
func (s *Scanner) Null() bool {
	if s.Peek() == 'n' && len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// Object reads an object, calling member with each key (unescaped) once
// the colon after it is consumed; member must read the value.
func (s *Scanner) Object(member func(key []byte) error) error {
	if s.Peek() != '{' {
		return s.unexpected("an object")
	}
	s.pos++
	if s.Peek() == '}' {
		s.pos++
		return nil
	}
	for {
		if s.Peek() != '"' {
			return s.unexpected("a string key")
		}
		key, err := s.String()
		if err != nil {
			return err
		}
		if s.Peek() != ':' {
			return s.unexpected("a colon")
		}
		s.pos++
		if err := member(key); err != nil {
			return err
		}
		switch s.Peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.unexpected("a comma or }")
		}
	}
}

// Array reads an array, calling elem once per element; elem must read
// the element.
func (s *Scanner) Array(elem func() error) error {
	if s.Peek() != '[' {
		return s.unexpected("an array")
	}
	s.pos++
	if s.Peek() == ']' {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.Peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.unexpected("a comma or ]")
		}
	}
}

// String reads a string and returns its value: a slice of the input
// when it holds no escape and is valid UTF-8, else the unescaped value
// in the arena.
func (s *Scanner) String() ([]byte, error) {
	if s.Peek() != '"' {
		return nil, s.unexpected("a string")
	}
	d, start := s.data, s.pos+1
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], nil
		case c == '\\' || c < ' ':
			return s.unescape(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return s.unescape(start, i)
			}
			i += size
		}
	}
	s.pos = len(d)
	return nil, s.errorf("unterminated string")
}

// unescape finishes the string that opened at start, from i on, into
// the arena.
func (s *Scanner) unescape(start, i int) ([]byte, error) {
	d, from := s.data, len(s.arena)
	s.arena = append(s.arena, d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return s.arena[from:len(s.arena):len(s.arena)], nil
		case c < ' ':
			s.pos = i
			return nil, s.errorf("control character %q in string", c)
		case c == '\\':
			if i+1 >= len(d) {
				s.pos = len(d)
				return nil, s.errorf("unterminated string")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				s.arena = append(s.arena, e)
			case 'b':
				s.arena = append(s.arena, '\b')
			case 'f':
				s.arena = append(s.arena, '\f')
			case 'n':
				s.arena = append(s.arena, '\n')
			case 'r':
				s.arena = append(s.arena, '\r')
			case 't':
				s.arena = append(s.arena, '\t')
			case 'u':
				r := hex4(d, i+2)
				if r < 0 {
					s.pos = i
					return nil, s.errorf("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A surrogate pair is one rune; any other
					// surrogate is U+FFFD and the escape after it is
					// read on its own.
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(d, i+2)); pair != utf8.RuneError {
							s.arena = utf8.AppendRune(s.arena, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				s.arena = utf8.AppendRune(s.arena, r)
				continue
			default:
				s.pos = i
				return nil, s.errorf("invalid escape \\%c", e)
			}
			i += 2
		case c < utf8.RuneSelf:
			s.arena = append(s.arena, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			s.arena = utf8.AppendRune(s.arena, r)
			i += size
		}
	}
	s.pos = len(d)
	return nil, s.errorf("unterminated string")
}

// hex4 returns the value of the four hex digits at d[i:], or -1.
func hex4(d []byte, i int) rune {
	if i < 0 || len(d)-i < 4 {
		return -1
	}
	var r rune
	for _, c := range d[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Scalar reads a string or a number and returns its text as it stands
// in the input, quotes and escapes included: the token encoding/json
// hands a scalar's UnmarshalJSON.
func (s *Scanner) Scalar() ([]byte, error) {
	switch c := s.Peek(); {
	case c == '"':
		start := s.pos
		if _, err := s.String(); err != nil {
			return nil, err
		}
		return s.data[start:s.pos], nil
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	}
	return nil, s.unexpected("a string or a number")
}

// number reads a number token.
func (s *Scanner) number() ([]byte, error) {
	d, start := s.data, s.pos
	i := start
	if d[i] == '-' {
		i++
	}
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.pos = i
		return nil, s.unexpected("a digit")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			s.pos = i
			return nil, s.unexpected("a digit")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.pos = i
			return nil, s.unexpected("a digit")
		}
	}
	s.pos = i
	return d[start:i], nil
}

// Match reports whether an object key selects the struct field named
// name (lower-case ASCII letters) under encoding/json's rule: equal
// under Unicode simple case folding, which for an ASCII name means
// ASCII case-insensitively, with U+017F (ſ) standing for s and U+212A
// (Kelvin sign) for k.
func Match(key []byte, name string) bool {
	i := 0
	for j := 0; j < len(name); j++ {
		if i >= len(key) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[j] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(key[i:])
		if !(r == 'ſ' && name[j] == 's' || r == 'K' && name[j] == 'k') {
			return false
		}
		i += size
	}
	return i == len(key)
}

// errorf reports a syntax or shape error at the current offset.
func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), s.pos)
}

// unexpected reports what was found where want was expected.
func (s *Scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of input, want %s", want)
	}
	return s.errorf("invalid character %q, want %s", s.data[s.pos], want)
}
