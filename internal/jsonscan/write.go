package jsonscan

import "unicode/utf8"

// AppendString appends s to dst as a JSON string, byte for byte as
// json.Encoder writes a string with HTML escaping on (its default):
// the HTML specials '<', '>' and '&', the separators U+2028 and U+2029
// and each invalid UTF-8 byte (as U+FFFD) take a six-byte \u escape, and
// control characters take the short escape (\b \f \n \r \t) where there
// is one and \u00XX otherwise. It allocates only to grow dst.
func AppendString[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	done := 0 // s[:done] is in dst
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[done:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			done = i
			continue
		}
		// At most UTFMax bytes are converted, so a []byte costs a stack
		// copy, never an allocation.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[done:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[done:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		done = i
	}
	dst = append(dst, s[done:]...)
	return append(dst, '"')
}

// plain marks the ASCII bytes a JSON string carries as they are: every
// printable character but the quote, the backslash and the three HTML
// specials.
var plain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()
