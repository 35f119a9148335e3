// Package sites provides the synthetic web corpus the RCB experiments run
// against: deterministic reconstructions of the 20 Alexa homepages from the
// paper's Table 1 (matched on HTML document size), a Google-Maps-like Ajax
// tile application, and an Amazon-like session-protected shop. All content
// is generated, served through internal/httpwire handlers, and fully
// deterministic so experiment results are reproducible run to run.
package sites

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// SiteSpec describes one homepage of the paper's Table 1 corpus.
type SiteSpec struct {
	Index    int     // 1-based row number in Table 1
	Name     string  // site hostname, e.g. "yahoo.com"
	PageKB   float64 // HTML document size from Table 1, in kilobytes
	HTTPS    bool    // served as a TLS origin (semantic flag in the simulation)
	RTTMs    int     // modeled one-way latency from a US campus, milliseconds
	Sessions bool    // homepage sets a session cookie
}

// PageBytes returns the HTML document target size in bytes.
func (s SiteSpec) PageBytes() int { return int(s.PageKB * 1024) }

// Host returns the virtual origin address for this site.
func (s SiteSpec) Host() string { return "www." + s.Name + ":80" }

// Table1 is the paper's 20-site corpus. Page sizes are the published values;
// per-site latency reflects geographic diversity (the paper chose sites for
// geographic and content diversity — yahoo.co.jp, mail.ru, free.fr are far
// from a US campus, which matters for the M1 vs M2 comparison).
var Table1 = []SiteSpec{
	{1, "yahoo.com", 130.3, false, 18, true},
	{2, "google.com", 6.8, false, 12, false},
	{3, "youtube.com", 69.2, false, 16, false},
	{4, "live.com", 20.9, true, 20, true},
	{5, "msn.com", 49.6, false, 20, false},
	{6, "myspace.com", 53.2, false, 24, true},
	{7, "wikipedia.org", 51.7, false, 26, false},
	{8, "facebook.com", 23.2, true, 18, true},
	{9, "yahoo.co.jp", 101.4, false, 75, false},
	{10, "ebay.com", 50.5, true, 22, true},
	{11, "aol.com", 71.3, false, 19, false},
	{12, "mail.ru", 83.8, false, 85, true},
	{13, "amazon.com", 228.5, true, 21, true},
	{14, "cnn.com", 109.4, false, 17, false},
	{15, "espn.go.com", 110.9, false, 23, false},
	{16, "free.fr", 70.0, false, 68, false},
	{17, "adobe.com", 37.3, false, 25, false},
	{18, "apple.com", 10.0, false, 15, false},
	{19, "about.com", 35.8, false, 21, false},
	{20, "nytimes.com", 120.0, false, 16, true},
}

// SiteByName returns the Table 1 spec with the given name, or false.
func SiteByName(name string) (SiteSpec, bool) {
	for _, s := range Table1 {
		if s.Name == name {
			return s, true
		}
	}
	return SiteSpec{}, false
}

// ObjectKind classifies supplementary objects.
type ObjectKind int

// Supplementary object kinds referenced from generated pages.
const (
	ObjImage ObjectKind = iota
	ObjCSS
	ObjScript
)

// ContentType returns the MIME type for the object kind.
func (k ObjectKind) ContentType() string {
	switch k {
	case ObjImage:
		return "image/png"
	case ObjCSS:
		return "text/css"
	case ObjScript:
		return "application/javascript"
	}
	return "application/octet-stream"
}

// Object is one supplementary resource of a generated page.
type Object struct {
	Path string // origin-relative path, e.g. "/img/3.png"
	Kind ObjectKind
	Size int // body size in bytes
}

// Inventory is the deterministic supplementary-object set for a site. The
// paper does not publish per-site object counts, so the inventory is scaled
// from the documented HTML size: larger 2009 portals carried more styling
// and imagery. Counts and sizes are derived from a per-site seeded PRNG so
// every run sees identical objects.
func Inventory(spec SiteSpec) []Object {
	r := rand.New(rand.NewSource(int64(seed(spec.Name))))
	var objs []Object
	nCSS := 1 + r.Intn(3)
	for i := 0; i < nCSS; i++ {
		objs = append(objs, Object{
			Path: fmt.Sprintf("/static/style%d.css", i),
			Kind: ObjCSS,
			Size: 2048 + r.Intn(18*1024),
		})
	}
	nJS := 1 + r.Intn(2)
	for i := 0; i < nJS; i++ {
		objs = append(objs, Object{
			Path: fmt.Sprintf("/static/app%d.js", i),
			Kind: ObjScript,
			Size: 4096 + r.Intn(36*1024),
		})
	}
	nImg := 4 + spec.PageBytes()/6144
	if nImg > 40 {
		nImg = 40
	}
	for i := 0; i < nImg; i++ {
		objs = append(objs, Object{
			Path: fmt.Sprintf("/img/i%d.png", i),
			Kind: ObjImage,
			Size: 1024 + r.Intn(28*1024),
		})
	}
	return objs
}

// seed hashes a name to a stable PRNG seed.
func seed(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// ObjectBytes generates the deterministic body for an object: a repeating
// pattern derived from site and path, sized exactly. CSS and JS bodies are
// syntactically plausible text; images are binary-ish filler.
func ObjectBytes(site, path string, kind ObjectKind, size int) []byte {
	r := rand.New(rand.NewSource(int64(seed(site + path))))
	switch kind {
	case ObjCSS:
		return textBody(r, size, func(i int) string {
			return fmt.Sprintf(".c%d{margin:%dpx;padding:%dpx;color:#%06x}\n", i, r.Intn(40), r.Intn(40), r.Intn(1<<24))
		})
	case ObjScript:
		return textBody(r, size, func(i int) string {
			return fmt.Sprintf("function f%d(x){return x*%d+%d;}\n", i, 1+r.Intn(9), r.Intn(100))
		})
	default:
		b := make([]byte, size)
		// PNG-looking header then deterministic noise.
		copy(b, "\x89PNG\r\n\x1a\n")
		for i := 8; i < size; i++ {
			b[i] = byte(r.Intn(256))
		}
		return b
	}
}

func textBody(r *rand.Rand, size int, line func(i int) string) []byte {
	var b strings.Builder
	b.Grow(size + 64)
	for i := 0; b.Len() < size; i++ {
		b.WriteString(line(i))
	}
	out := []byte(b.String())[:size]
	// Do not end mid-rune or mid-line in a way that matters; raw truncation
	// is fine for synthetic bodies.
	return out
}
