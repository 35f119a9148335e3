// Package jsescape implements the classic JavaScript escape and unescape
// functions (ECMA-262 B.2.1 / B.2.2).
//
// RCB-Agent encodes every CDATA payload of its XML response content with
// JavaScript's escape() so that arbitrary page bytes survive transport inside
// an application/xml message (paper §4.1.2). Ajax-Snippet decodes with
// unescape() before applying content to the participant document. This
// package reproduces those two functions byte-for-byte so the Go host agent
// and the Go participant snippet speak the same wire encoding a real
// JavaScript engine would.
//
// Both directions are byte-table kernels that size their output once:
// escape() encodes each ASCII byte by table lookup, unescape() copies runs
// of plain ASCII bytes with one write and decodes %XX by table, and only
// non-ASCII bytes and %uXXXX escapes take the rune-at-a-time path. The test
// file keeps the original rune-at-a-time implementation as the reference
// the kernels are fuzzed against.
package jsescape

import (
	"slices"
	"strings"
	"unicode/utf8"
)

const upperhex = "0123456789ABCDEF"

// escapedWidth[c] is the length of escape()'s output for the ASCII byte c:
// 1 for the characters ECMA-262 B.2.1 keeps as-is (ASCII alphanumerics and
// @ * _ + - . /), 3 for the %XX form. Bytes from 0x80 up are 0: they start
// (or are stray parts of) multi-byte UTF-8 sequences and take the rune path.
var escapedWidth = func() (t [256]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = 3
	}
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@*_+-./") {
		t[c] = 1
	}
	return t
}()

// unhex maps a hex digit to its value and every other byte to 0xFF.
var unhex = func() (t [256]uint8) {
	for i := range t {
		t[i] = 0xFF
	}
	for i := 0; i < 16; i++ {
		t["0123456789abcdef"[i]] = uint8(i)
		t["0123456789ABCDEF"[i]] = uint8(i)
	}
	return t
}()

// Escape returns the JavaScript escape() encoding of s. Code points below
// U+0100 become %XX; all others become %uXXXX. Input is treated as a sequence
// of UTF-16 code units, exactly as a JavaScript engine would: code points
// outside the BMP are encoded as surrogate pairs (%uD8xx%uDCxx).
func Escape(s string) string {
	return string(AppendEscape(nil, s))
}

// AppendEscape appends the escape() encoding of s to dst and returns the
// extended slice — the allocation-free form the agent's message assembly
// uses to encode payloads directly into an outgoing buffer. dst grows at
// most once, to the exact encoded size, and ASCII bytes are encoded by
// table lookup; only non-ASCII bytes are decoded as runes. Invalid UTF-8
// bytes encode as %uFFFD, as a range loop over s decodes them.
func AppendEscape[T string | []byte](dst []byte, s T) []byte {
	start, n := len(dst), escapedLen(s)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	k := 0
	for i := 0; i < len(s); {
		c := s[i]
		switch escapedWidth[c] {
		case 1:
			out[k] = c
			k++
			i++
			continue
		case 3:
			out[k], out[k+1], out[k+2] = '%', upperhex[c>>4], upperhex[c&0xF]
			k += 3
			i++
			continue
		}
		r, size := decodeRune(s[i:])
		i += size
		switch {
		case r < 0x100:
			out[k], out[k+1], out[k+2] = '%', upperhex[r>>4], upperhex[r&0xF]
			k += 3
		case r <= 0xFFFF:
			k += putU16(out[k:], uint16(r))
		default:
			// Encode as a UTF-16 surrogate pair, mirroring JS semantics.
			v := uint32(r) - 0x10000
			k += putU16(out[k:], uint16(0xD800+(v>>10)))
			k += putU16(out[k:], uint16(0xDC00+(v&0x3FF)))
		}
	}
	return dst
}

// escapedLen returns the length of the escape() encoding of s.
func escapedLen[T string | []byte](s T) int {
	n := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			n += int(escapedWidth[c])
			i++
			continue
		}
		r, size := decodeRune(s[i:])
		i += size
		switch {
		case r < 0x100:
			n += 3
		case r <= 0xFFFF:
			n += 6
		default:
			n += 12
		}
	}
	return n
}

// decodeRune decodes the first rune of s the way a range loop over a string
// does: an invalid or truncated sequence yields utf8.RuneError and width 1.
func decodeRune[T string | []byte](s T) (rune, int) {
	if len(s) > utf8.UTFMax {
		s = s[:utf8.UTFMax]
	}
	return utf8.DecodeRuneInString(string(s))
}

// putU16 writes the %uXXXX form of one UTF-16 code unit to out and returns
// its length.
func putU16(out []byte, u uint16) int {
	_ = out[5]
	out[0], out[1] = '%', 'u'
	out[2], out[3], out[4], out[5] = upperhex[u>>12], upperhex[(u>>8)&0xF], upperhex[(u>>4)&0xF], upperhex[u&0xF]
	return 6
}

// Unescape reverses Escape, implementing JavaScript unescape() (ECMA-262
// B.2.2). Sequences that do not form a valid %XX or %uXXXX escape are copied
// through literally, as JS does; there is no error case. Surrogate pairs
// produced by Escape are recombined into their original code points; unpaired
// surrogates decode to U+FFFD (Go strings cannot carry lone surrogates).
// Plain bytes that are not valid UTF-8 decode as Latin-1 (see latin1Rune).
func Unescape(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	var pendingHigh rune // buffered high surrogate awaiting its low half
	flushPending := func() {
		if pendingHigh != 0 {
			b.WriteRune(utf8.RuneError)
			pendingHigh = 0
		}
	}
	for i := 0; i < len(s); {
		c := s[i]
		if pendingHigh == 0 {
			// The common cases: a run of plain ASCII bytes, copied with
			// one write, and a %XX escape of an ASCII byte.
			if c != '%' && c < utf8.RuneSelf {
				j := i + 1
				for j < len(s) && s[j] != '%' && s[j] < utf8.RuneSelf {
					j++
				}
				b.WriteString(s[i:j])
				i = j
				continue
			}
			if c == '%' && i+2 < len(s) {
				if h, l := unhex[s[i+1]], unhex[s[i+2]]; h < 8 && l < 16 {
					b.WriteByte(h<<4 | l)
					i += 3
					continue
				}
			}
		}
		if c != '%' {
			flushPending()
			r, size := latin1Rune(s[i:])
			b.WriteRune(r)
			i += size
			continue
		}
		u, n := rune(-1), 1
		if i+5 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
			if d0, d1, d2, d3 := unhex[s[i+2]], unhex[s[i+3]], unhex[s[i+4]], unhex[s[i+5]]; d0|d1|d2|d3 < 16 {
				u, n = rune(d0)<<12|rune(d1)<<8|rune(d2)<<4|rune(d3), 6
			}
		}
		if u < 0 && i+2 < len(s) {
			if h, l := unhex[s[i+1]], unhex[s[i+2]]; h|l < 16 {
				u, n = rune(h)<<4|rune(l), 3
			}
		}
		i += n
		switch {
		case u < 0: // not an escape: the '%' is copied literally
			flushPending()
			b.WriteByte('%')
		case u >= 0xD800 && u <= 0xDBFF: // high surrogate
			flushPending()
			pendingHigh = u
		case u >= 0xDC00 && u <= 0xDFFF: // low surrogate
			if pendingHigh != 0 {
				b.WriteRune(0x10000 + (pendingHigh-0xD800)<<10 + (u - 0xDC00))
				pendingHigh = 0
			} else {
				b.WriteRune(utf8.RuneError)
			}
		default:
			flushPending()
			b.WriteRune(u)
		}
	}
	flushPending()
	return b.String()
}

// latin1Rune decodes the first rune of s leniently: a lead byte followed by
// the right number of continuation bytes decodes to its code point (even
// when overlong or a surrogate; WriteRune turns the invalid ones into
// U+FFFD), and any other byte yields its own value (a Latin-1 fallback), so
// Unescape(Escape(x)) == x holds for every valid x.
func latin1Rune(s string) (rune, int) {
	c := s[0]
	if c < utf8.RuneSelf {
		return rune(c), 1
	}
	var n int
	var r rune
	switch {
	case c&0xE0 == 0xC0:
		n, r = 2, rune(c&0x1F)
	case c&0xF0 == 0xE0:
		n, r = 3, rune(c&0x0F)
	case c&0xF8 == 0xF0:
		n, r = 4, rune(c&0x07)
	default:
		return rune(c), 1
	}
	if len(s) < n {
		return rune(c), 1
	}
	for i := 1; i < n; i++ {
		if s[i]&0xC0 != 0x80 {
			return rune(c), 1
		}
		r = r<<6 | rune(s[i]&0x3F)
	}
	return r, n
}
