package jsescape

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// Escape returns the escape() encoding of s as a string.
func Escape(s string) string { return string(AppendEscape(nil, s)) }

// Unescape returns the unescape() decoding of s as a string.
func Unescape(s string) string { return string(AppendUnescape(nil, s)) }

// The reference oracle: the original rune-at-a-time escape() and unescape(),
// kept verbatim so the byte-table kernels can be checked against them on
// arbitrary input (FuzzEscapeMatchesReference).

func refUnreserved(c rune) bool {
	switch {
	case c >= 'A' && c <= 'Z':
		return true
	case c >= 'a' && c <= 'z':
		return true
	case c >= '0' && c <= '9':
		return true
	}
	switch c {
	case '@', '*', '_', '+', '-', '.', '/':
		return true
	}
	return false
}

func refAppendEscape(dst []byte, s string) []byte {
	for _, r := range s {
		switch {
		case refUnreserved(r):
			if r < 0x80 {
				dst = append(dst, byte(r))
			} else {
				dst = append(dst, string(r)...)
			}
		case r < 0x100:
			dst = append(dst, '%', upperhex[r>>4], upperhex[r&0xF])
		case r <= 0xFFFF:
			dst = refAppendU16(dst, uint16(r))
		default:
			v := uint32(r) - 0x10000
			dst = refAppendU16(dst, uint16(0xD800+(v>>10)))
			dst = refAppendU16(dst, uint16(0xDC00+(v&0x3FF)))
		}
	}
	return dst
}

func refAppendU16(dst []byte, u uint16) []byte {
	return append(dst, '%', 'u',
		upperhex[u>>12], upperhex[(u>>8)&0xF], upperhex[(u>>4)&0xF], upperhex[u&0xF])
}

func refUnescape(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	i := 0
	var pendingHigh rune
	flushPending := func() {
		if pendingHigh != 0 {
			b.WriteRune('\uFFFD')
			pendingHigh = 0
		}
	}
	writeUnit := func(u rune) {
		if u >= 0xD800 && u <= 0xDBFF {
			flushPending()
			pendingHigh = u
			return
		}
		if u >= 0xDC00 && u <= 0xDFFF {
			if pendingHigh != 0 {
				r := 0x10000 + (pendingHigh-0xD800)<<10 + (u - 0xDC00)
				pendingHigh = 0
				b.WriteRune(r)
				return
			}
			b.WriteRune('\uFFFD')
			return
		}
		flushPending()
		b.WriteRune(u)
	}
	for i < len(s) {
		c := s[i]
		if c != '%' {
			flushPending()
			r, size := refDecodeRune(s[i:])
			b.WriteRune(r)
			i += size
			continue
		}
		if i+5 < len(s) && (s[i+1] == 'u' || s[i+1] == 'U') {
			if v, ok := refHex4(s[i+2 : i+6]); ok {
				writeUnit(rune(v))
				i += 6
				continue
			}
		}
		if i+2 < len(s) {
			if v, ok := refHex2(s[i+1 : i+3]); ok {
				writeUnit(rune(v))
				i += 3
				continue
			}
		}
		flushPending()
		b.WriteByte('%')
		i++
	}
	flushPending()
	return b.String()
}

func refDecodeRune(s string) (rune, int) {
	if len(s) == 0 {
		return 0, 0
	}
	c := s[0]
	if c < 0x80 {
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

func refHexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func refHex2(s string) (uint16, bool) {
	h, ok1 := refHexVal(s[0])
	l, ok2 := refHexVal(s[1])
	if !ok1 || !ok2 {
		return 0, false
	}
	return uint16(h)<<4 | uint16(l), true
}

func refHex4(s string) (uint16, bool) {
	var v uint16
	for i := 0; i < 4; i++ {
		d, ok := refHexVal(s[i])
		if !ok {
			return 0, false
		}
		v = v<<4 | uint16(d)
	}
	return v, true
}

// FuzzEscapeMatchesReference checks both kernels byte for byte against the
// reference oracle on arbitrary input: invalid and overlong UTF-8, lone and
// unpaired %uD8xx/%uDCxx surrogates, truncated and non-hex % sequences. The
// escape side is checked through both instantiations and onto a non-empty
// destination; the unescape side also decodes the escaped form back. The
// seed corpus under testdata/fuzz covers each of those input classes.
func FuzzEscapeMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want := refAppendEscape(nil, s)
		if got := AppendEscape(nil, s); string(got) != string(want) {
			t.Fatalf("AppendEscape(%q) = %q, reference %q", s, got, want)
		}
		if got := AppendEscape([]byte("pre"), []byte(s)); string(got) != "pre"+string(want) {
			t.Fatalf("AppendEscape(pre, []byte(%q)) = %q, reference pre+%q", s, got, want)
		}
		if got, want := Unescape(s), refUnescape(s); got != want {
			t.Fatalf("Unescape(%q) = %q, reference %q", s, got, want)
		}
		enc := string(want)
		if got, want := Unescape(enc), refUnescape(enc); got != want {
			t.Fatalf("Unescape(%q) = %q, reference %q", enc, got, want)
		}
	})
}

// boundarySpecials are the input classes that leave the kernels' word
// loops: each is swept across the first two word boundaries by
// TestKernelsAtWordBoundaries.
var boundarySpecials = []string{
	"%41",        // valid %XX of an ASCII byte
	"%e9",        // valid %XX above 0x7F
	"%4G", "%G4", // invalid %XX
	"%u20AC",                // valid %uXXXX
	"%u20aG",                // invalid %uXXXX
	"%uD834%uDD1E",          // surrogate pair
	"%uD834",                // lone high surrogate
	"%uDD1E",                // lone low surrogate
	"%uD834%41",             // high surrogate then a plain escape
	"é",                     // two-byte UTF-8
	"€",                     // three-byte UTF-8
	"𝄞",                     // astral (four bytes, a surrogate pair escaped)
	"\xff",                  // invalid byte
	"\xe2\x82",              // truncated sequence
	"%", "%4", "%u", "%uD8", // a '%' starting no escape, as at len-1 and len-2
	" ", "<", // ASCII bytes escape() encodes
}

// TestKernelsAtWordBoundaries places every boundarySpecials class at every
// offset 0–16 of inputs of length 0–24, between plain and mixed fillers,
// and checks both kernels against the reference: escape through both
// instantiations, onto destinations with every spare capacity around the
// exact size (so the grow-the-rest path is hit at every position), and
// unescape of the input and of its escaped form.
func TestKernelsAtWordBoundaries(t *testing.T) {
	fillers := []string{"abcdefghijklmnopqrstuvwxyz", "a b<c>d=e&f g.h/i j"}
	for _, sp := range boundarySpecials {
		for _, fill := range fillers {
			for n := 0; n <= 24; n++ {
				for off := 0; off <= 16 && off+len(sp) <= n; off++ {
					rest := n - off - len(sp)
					s := fill[:off%len(fill)] + sp + strings.Repeat(fill, 2)[:rest]
					checkKernels(t, s)
				}
			}
		}
	}
}

func checkKernels(t *testing.T, s string) {
	t.Helper()
	want := refAppendEscape(nil, s)
	if got := AppendEscape(nil, s); string(got) != string(want) {
		t.Fatalf("AppendEscape(%q) = %q, reference %q", s, got, want)
	}
	if n := EscapedLen(s); n != len(want) {
		t.Fatalf("EscapedLen(%q) = %d, reference %d", s, n, len(want))
	}
	for spare := 0; spare <= len(want)+32; spare++ {
		dst := append(make([]byte, 0, 3+spare), "pre"...)
		if got := AppendEscape(dst, []byte(s)); string(got) != "pre"+string(want) {
			t.Fatalf("AppendEscape(pre with %d spare, %q) = %q, reference pre+%q", spare, s, got, want)
		}
	}
	if got, want := Unescape(s), refUnescape(s); got != want {
		t.Fatalf("Unescape(%q) = %q, reference %q", s, got, want)
	}
	if got, want := AppendUnescape([]byte("pre"), []byte(s)), refUnescape(s); string(got) != "pre"+want {
		t.Fatalf("AppendUnescape(pre, %q) = %q, reference pre+%q", s, got, want)
	}
	if got, want := Unescape(string(want)), refUnescape(string(want)); got != want {
		t.Fatalf("Unescape(%q) = %q, reference %q", want, got, want)
	}
}

func TestEscapeASCIIUnreserved(t *testing.T) {
	in := "abcXYZ019@*_+-./"
	if got := Escape(in); got != in {
		t.Fatalf("Escape(%q) = %q, want unchanged", in, got)
	}
}

func TestEscapeKnownVectors(t *testing.T) {
	// Vectors cross-checked against a JavaScript engine's escape().
	cases := []struct{ in, want string }{
		{"", ""},
		{" ", "%20"},
		{"a b", "a%20b"},
		{"<html>", "%3Chtml%3E"},
		{"100%", "100%25"},
		{"a=1&b=2", "a%3D1%26b%3D2"},
		{"\n\t", "%0A%09"},
		{"é", "%E9"},
		{"ÿ", "%FF"},
		{"€", "%u20AC"},
		{"中文", "%u4E2D%u6587"},
		{"日本語", "%u65E5%u672C%u8A9E"},
		{"\x00", "%00"},
		{"~", "%7E"},
		{"'", "%27"},
		{"\"", "%22"},
	}
	for _, c := range cases {
		if got := Escape(c.in); got != c.want {
			t.Errorf("Escape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEscapeSupplementaryPlane(t *testing.T) {
	// U+1D11E MUSICAL SYMBOL G CLEF → surrogate pair D834 DD1E.
	if got := Escape("\U0001D11E"); got != "%uD834%uDD1E" {
		t.Fatalf("Escape clef = %q, want %%uD834%%uDD1E", got)
	}
	if got := Unescape("%uD834%uDD1E"); got != "\U0001D11E" {
		t.Fatalf("Unescape clef = %q", got)
	}
}

func TestUnescapeKnownVectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"%20", " "},
		{"a%20b", "a b"},
		{"%3Chtml%3E", "<html>"},
		{"%E9", "é"},
		{"%u20AC", "€"},
		{"%u4E2D%u6587", "中文"},
		{"plain", "plain"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Unescape(c.in); got != c.want {
			t.Errorf("Unescape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestUnescapeMalformedPassthrough(t *testing.T) {
	// JS unescape copies through anything that is not a valid escape.
	cases := []struct{ in, want string }{
		{"%", "%"},
		{"%2", "%2"},
		{"%G1", "%G1"},
		{"%u12", "%u12"},
		{"%u12G4", "%u12G4"},
		{"50%", "50%"},
		{"%%41", "%A"},
		{"%u", "%u"},
	}
	for _, c := range cases {
		if got := Unescape(c.in); got != c.want {
			t.Errorf("Unescape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestUnescapeLoneSurrogates(t *testing.T) {
	// Lone surrogates cannot be represented in a Go string; they decode to
	// the replacement character rather than corrupting the output.
	if got := Unescape("%uD834"); got != "�" {
		t.Errorf("lone high surrogate = %q", got)
	}
	if got := Unescape("%uDD1E"); got != "�" {
		t.Errorf("lone low surrogate = %q", got)
	}
	if got := Unescape("%uD834x"); got != "�x" {
		t.Errorf("high surrogate then ascii = %q", got)
	}
	if got := Unescape("%uD834%20"); got != "� " {
		t.Errorf("high surrogate then escape = %q", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true // Escape is defined over valid strings only
		}
		return Unescape(Escape(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEscapeOutputIsXMLSafeProperty(t *testing.T) {
	// The whole point of escape() in RCB: payloads must not contain XML
	// metacharacters that could break the CDATA container.
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		out := Escape(s)
		return !strings.ContainsAny(out, "<>&\"']]")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEscapeHTMLDocument(t *testing.T) {
	doc := `<body onclick="go()"><p class="x">5 > 4 &amp; 3 < 4</p></body>`
	enc := Escape(doc)
	if strings.ContainsAny(enc, "<>&\"") {
		t.Fatalf("escaped doc still contains XML metacharacters: %q", enc)
	}
	if Unescape(enc) != doc {
		t.Fatalf("round trip failed")
	}
}

// benchDocs are the kernel benchmark inputs: markup-dense ASCII HTML, and
// the same text with one 'é' per KB, whose throughput must stay within
// 1.2x of the ASCII case — the rare non-ASCII path must cost one sequence,
// never a fall back to a slow loop for the rest of the input.
func benchDocs() []struct{ name, doc string } {
	ascii := strings.Repeat(`<div class="row" onclick="pick(1)">item &amp; more</div>`, 200)
	var sparse strings.Builder
	for i := 0; i < len(ascii); i += 1024 {
		sparse.WriteString(ascii[i:min(i+1022, len(ascii))])
		sparse.WriteString("é")
	}
	return []struct{ name, doc string }{{"ascii", ascii}, {"sparse-nonascii", sparse.String()}}
}

func BenchmarkEscapeHTML(b *testing.B) {
	for _, d := range benchDocs() {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(d.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Escape(d.doc)
			}
		})
	}
}

func BenchmarkUnescapeHTML(b *testing.B) {
	for _, d := range benchDocs() {
		doc := Escape(d.doc)
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Unescape(doc)
			}
		})
	}
}
