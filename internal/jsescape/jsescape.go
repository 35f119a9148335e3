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
// Both directions read eight bytes at a time. escape() takes a word of
// ASCII bytes per step and emits each lane with one load from a table of
// packed outputs (the byte itself, or its %XX form) and one four-byte
// store, so no branch depends on a byte's class; its exact output size is
// a table sum over the same words. unescape() stores each word
// speculatively into its output, jumps to the next '%' or non-ASCII byte
// by counting the trailing zeros of a SWAR lane mask, and decodes %XX by
// table. Only non-ASCII bytes, %uXXXX escapes and malformed '%' sequences
// take the rune-at-a-time path, one sequence at a time, before the word
// loop resumes. The test file keeps the original rune-at-a-time
// implementation as the reference the kernels are fuzzed against.
package jsescape

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"unicode/utf8"
	"unsafe"
)

const upperhex = "0123456789ABCDEF"

// Lane constants for the word-at-a-time kernels: lsb has the low bit of
// every byte lane set, msb the high bit.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

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

// escapeCode[c] packs escape()'s output for the ASCII byte c into one word:
// the byte itself or its %XX form, little-endian in the low three bytes, and
// the output length in the top byte. One four-byte store emits any lane.
var escapeCode = func() (t [utf8.RuneSelf]uint32) {
	for c := range t {
		if escapedWidth[c] == 1 {
			t[c] = uint32(c) | 1<<24
		} else {
			t[c] = '%' | uint32(upperhex[c>>4])<<8 | uint32(upperhex[c&0xF])<<16 | 3<<24
		}
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

// bytesOf views s as a byte slice without copying; the kernels only read
// it. Both a string and a slice header begin with the data pointer.
func bytesOf[T string | []byte](s T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(*(**byte)(unsafe.Pointer(&s)), len(s))
}

// Escape returns the JavaScript escape() encoding of s. Code points below
// U+0100 become %XX; all others become %uXXXX. Input is treated as a sequence
// of UTF-16 code units, exactly as a JavaScript engine would: code points
// outside the BMP are encoded as surrogate pairs (%uD8xx%uDCxx).
func Escape(s string) string {
	b := AppendEscape(nil, s)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// EscapedLen returns the length of the escape() encoding of s, summed a
// word of ASCII bytes at a time. Callers that assemble several encodings
// into one buffer size it exactly with this, and AppendEscape then never
// grows it.
func EscapedLen[T string | []byte](s T) int {
	return escapedLen(bytesOf(s))
}

func escapedLen(s []byte) int {
	n := 0
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			if w := binary.LittleEndian.Uint64(s[i:]); w&msb == 0 {
				n += int(escapedWidth[byte(w)]) + int(escapedWidth[byte(w>>8)]) +
					int(escapedWidth[byte(w>>16)]) + int(escapedWidth[byte(w>>24)]) +
					int(escapedWidth[byte(w>>32)]) + int(escapedWidth[byte(w>>40)]) +
					int(escapedWidth[byte(w>>48)]) + int(escapedWidth[byte(w>>56)])
				i += 8
				continue
			}
		}
		if c := s[i]; c < utf8.RuneSelf {
			n += int(escapedWidth[c])
			i++
			continue
		}
		r, size := decodeRune(s[i:])
		n += runeEscapedLen(r)
		i += size
	}
	return n
}

// runeEscapedLen is the length of the escape() encoding of a non-ASCII rune.
func runeEscapedLen(r rune) int {
	switch {
	case r < 0x100:
		return 3
	case r <= 0xFFFF:
		return 6
	default:
		return 12
	}
}

// AppendEscape appends the escape() encoding of s to dst and returns the
// extended slice — the allocation-free form the agent's message assembly
// uses to encode payloads directly into an outgoing buffer. When dst lacks
// room it grows once, by the exact encoded size of what is left (see
// EscapedLen); a dst presized with EscapedLen is never grown or recounted.
// Invalid UTF-8 bytes encode as %uFFFD, as a range loop over s decodes them.
// Bytes of dst's spare capacity past the result may be overwritten.
func AppendEscape[T string | []byte](dst []byte, s T) []byte {
	return appendEscape(dst, bytesOf(s))
}

func appendEscape(dst, s []byte) []byte {
	k := len(dst)
	if cap(dst)-k < len(s) {
		dst = slices.Grow(dst, escapedLen(s))
	}
	buf := dst[:cap(dst)]
	for i := 0; i < len(s); {
		// The word loop: eight ASCII bytes per step, each lane one table
		// load and one four-byte store with no branch on the byte's class;
		// only the output offset carries from lane to lane. A word emits at
		// most 24 bytes, and the store of its last lane writes one past.
		for i+8 <= len(s) && len(buf)-k >= 25 {
			w := binary.LittleEndian.Uint64(s[i:])
			if w&msb != 0 {
				break
			}
			b := buf[k : k+25]
			v := escapeCode[byte(w)&0x7F]
			binary.LittleEndian.PutUint32(b, v)
			o := int(v >> 24)
			v = escapeCode[byte(w>>8)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			o += int(v >> 24)
			v = escapeCode[byte(w>>16)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			o += int(v >> 24)
			v = escapeCode[byte(w>>24)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			o += int(v >> 24)
			v = escapeCode[byte(w>>32)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			o += int(v >> 24)
			v = escapeCode[byte(w>>40)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			o += int(v >> 24)
			v = escapeCode[byte(w>>48)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			o += int(v >> 24)
			v = escapeCode[byte(w>>56)&0x7F]
			binary.LittleEndian.PutUint32(b[o:], v)
			k += o + int(v>>24)
			i += 8
		}
		if i == len(s) {
			break
		}
		if len(buf)-k < 12 {
			// Too little room for the widest rune form: size the rest
			// exactly and grow only if it does not fit.
			if need := escapedLen(s[i:]); len(buf)-k < need {
				buf = slices.Grow(buf[:k], need)
				buf = buf[:cap(buf)]
			}
		}
		switch c := s[i]; escapedWidth[c] {
		case 1:
			buf[k] = c
			k++
			i++
			continue
		case 3:
			buf[k], buf[k+1], buf[k+2] = '%', upperhex[c>>4], upperhex[c&0xF]
			k += 3
			i++
			continue
		}
		r, size := decodeRune(s[i:])
		i += size
		switch {
		case r < 0x100:
			buf[k], buf[k+1], buf[k+2] = '%', upperhex[r>>4], upperhex[r&0xF]
			k += 3
		case r <= 0xFFFF:
			k += putU16(buf[k:], uint16(r))
		default:
			// Encode as a UTF-16 surrogate pair, mirroring JS semantics.
			v := uint32(r) - 0x10000
			k += putU16(buf[k:], uint16(0xD800+(v>>10)))
			k += putU16(buf[k:], uint16(0xDC00+(v&0x3FF)))
		}
	}
	return buf[:k]
}

// decodeRune decodes the first rune of s the way a range loop over a string
// does: an invalid or truncated sequence yields utf8.RuneError and width 1.
func decodeRune(s []byte) (rune, int) {
	if len(s) > utf8.UTFMax {
		s = s[:utf8.UTFMax]
	}
	return utf8.DecodeRune(s)
}

// putU16 writes the %uXXXX form of one UTF-16 code unit to out and returns
// its length.
func putU16(out []byte, u uint16) int {
	_ = out[5]
	out[0], out[1] = '%', 'u'
	out[2], out[3], out[4], out[5] = upperhex[u>>12], upperhex[(u>>8)&0xF], upperhex[(u>>4)&0xF], upperhex[u&0xF]
	return 6
}

// specialLanes sets the high bit of the first lane of w holding '%' or a
// byte from 0x80 up (higher lanes may carry false positives from the
// zero-byte borrow; only the lowest set bit is exact).
func specialLanes(w uint64) uint64 {
	x := w ^ (lsb * '%')
	return ((x-lsb)&^x | w) & msb
}

// Unescape reverses Escape, implementing JavaScript unescape() (ECMA-262
// B.2.2). Sequences that do not form a valid %XX or %uXXXX escape are copied
// through literally, as JS does; there is no error case. Surrogate pairs
// produced by Escape are recombined into their original code points; unpaired
// surrogates decode to U+FFFD (Go strings cannot carry lone surrogates).
// Plain bytes that are not valid UTF-8 decode as Latin-1 (see latin1Rune).
// The result is built in its own buffer and shares no memory with s.
func Unescape(s string) string {
	if s == "" {
		return ""
	}
	b := AppendUnescape(make([]byte, 0, len(s)), s)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendUnescape appends the unescape() decoding of s to dst and returns the
// extended slice: the form a decoder uses to unescape payloads straight out
// of a received message. Bytes of dst's spare capacity past the result may
// be overwritten.
func AppendUnescape[T string | []byte](dst []byte, s T) []byte {
	return appendUnescape(dst, bytesOf(s))
}

func appendUnescape(dst, s []byte) []byte {
	k := len(dst)
	buf := slices.Grow(dst, len(s))
	buf = buf[:cap(buf)]
	// Invariant: len(buf)-k >= len(s)-i. Plain bytes and ASCII %XX escapes
	// write no more than they read, so they keep it without a check, and
	// the speculative word store always has eight bytes of room.
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			w := binary.LittleEndian.Uint64(s[i:])
			binary.LittleEndian.PutUint64(buf[k:], w)
			m := specialLanes(w)
			if m == 0 {
				i += 8
				k += 8
				continue
			}
			z := bits.TrailingZeros64(m) >> 3
			i += z
			k += z
		} else if c := s[i]; c != '%' && c < utf8.RuneSelf {
			buf[k] = c
			i++
			k++
			continue
		}
		if s[i] == '%' && i+2 < len(s) {
			if h, l := unhex[s[i+1]], unhex[s[i+2]]; h < 8 && l < 16 {
				buf[k] = h<<4 | l
				i += 3
				k++
				continue
			}
		}
		var out []byte
		out, i = unescapeSequence(buf[:k], s, i)
		k = len(out)
		buf = slices.Grow(out, len(s)-i)
		buf = buf[:cap(buf)]
	}
	return buf[:k]
}

// unescapeSequence decodes the one sequence at s[i] the word loop leaves to
// the rune path — a non-ASCII byte, a %XX above 0x7F, a %uXXXX or a '%'
// that starts no escape — appending it to dst. A high surrogate waits for
// the sequence after it, which completes the pair or is decoded after a
// U+FFFD. It returns the extended dst and the offset past what it read.
func unescapeSequence(dst, s []byte, i int) ([]byte, int) {
	var high rune // a high surrogate awaiting its low half
	for i < len(s) {
		c := s[i]
		if c != '%' {
			if high != 0 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			}
			r, size := latin1Rune(s[i:])
			return utf8.AppendRune(dst, r), i + size
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
		case u >= 0xD800 && u <= 0xDBFF:
			if high != 0 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			}
			high = u
			continue
		case u >= 0xDC00 && u <= 0xDFFF && high != 0:
			return utf8.AppendRune(dst, 0x10000+(high-0xD800)<<10+(u-0xDC00)), i
		}
		if high != 0 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		}
		switch {
		case u < 0: // not an escape: the '%' is copied literally
			return append(dst, '%'), i
		case u >= 0xDC00 && u <= 0xDFFF: // a lone low surrogate
			return utf8.AppendRune(dst, utf8.RuneError), i
		}
		return utf8.AppendRune(dst, u), i
	}
	return utf8.AppendRune(dst, utf8.RuneError), i // high surrogate at the end
}

// latin1Rune decodes the first rune of s leniently: a lead byte followed by
// the right number of continuation bytes decodes to its code point (even
// when overlong or a surrogate; AppendRune turns the invalid ones into
// U+FFFD), and any other byte yields its own value (a Latin-1 fallback), so
// Unescape(Escape(x)) == x holds for every valid x.
func latin1Rune(s []byte) (rune, int) {
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
