package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rcb/internal/dom"
)

func TestElementPathRoundTrip(t *testing.T) {
	doc := dom.Parse(`<html><head><title>t</title></head>` +
		`<body><div><p>a</p><p>b</p></div><form><input name="q"></form></body></html>`)
	for _, el := range doc.Root.FindAll(func(n *dom.Node) bool { return n.Type == dom.ElementNode }) {
		path := ElementPath(el)
		if got := ResolvePath(doc.Root, path); got != el {
			t.Errorf("path %q resolved to %v, want %v", path, got, el)
		}
	}
}

func TestElementPathOfRoot(t *testing.T) {
	doc := dom.Parse(`<html><body></body></html>`)
	if p := ElementPath(doc.Root); p != "" {
		t.Errorf("root path = %q", p)
	}
	if ResolvePath(doc.Root, "") != doc.Root {
		t.Error("empty path must resolve to root")
	}
}

func TestResolvePathStale(t *testing.T) {
	doc := dom.Parse(`<html><body><p>x</p></body></html>`)
	if ResolvePath(doc.Root, "1.9") != nil {
		t.Error("out-of-range path must be nil")
	}
	if ResolvePath(doc.Root, "not.a.path") != nil {
		t.Error("garbage path must be nil")
	}
	if ResolvePath(doc.Root, "-1") != nil {
		t.Error("negative path must be nil")
	}
	// Malformed segmenting — empty parts from leading, trailing, or doubled
	// dots — must be rejected, not silently resolved.
	for _, p := range []string{"0.", ".0", "0..0", "."} {
		if ResolvePath(doc.Root, p) != nil {
			t.Errorf("malformed path %q must be nil", p)
		}
	}
}

func TestElementPathPropertyRandomTrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dom.Parse(`<html><head></head><body>` + randomDivs(r, 4) + `</body></html>`)
		ok := true
		doc.Root.Walk(func(n *dom.Node) bool {
			if n.Type == dom.ElementNode {
				if ResolvePath(doc.Root, ElementPath(n)) != n {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomDivs(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(3) == 0 {
		return "leaf"
	}
	var b strings.Builder
	for i := 0; i < 1+r.Intn(3); i++ {
		b.WriteString("<div>")
		b.WriteString(randomDivs(r, depth-1))
		b.WriteString("</div>")
	}
	return b.String()
}

// genOpts builds contentOptions over a fixed resolver and cache set.
func genOpts(pageURL string, cacheMode bool, cached map[string]bool) contentOptions {
	registered := map[string]string{}
	n := 0
	return contentOptions{
		pageURL:   pageURL,
		docTime:   100,
		cacheMode: cacheMode,
		resolveRef: func(ref string) string {
			if strings.HasPrefix(ref, "http://") || strings.HasPrefix(ref, "https://") {
				return ref
			}
			if strings.HasPrefix(ref, "/") {
				return "http://www.site.com" + ref
			}
			return "http://www.site.com/" + ref
		},
		cacheHas: func(abs string) bool { return cached[abs] },
		agentURLFor: func(abs string) string {
			if p, ok := registered[abs]; ok {
				return p
			}
			n++
			p := "http://host.lan:3000/obj/t" + string(rune('0'+n))
			registered[abs] = p
			return p
		},
	}
}

const testPage = `<html><head><title>T</title>` +
	`<link rel="stylesheet" href="/s.css"><script src="app.js"></script></head>` +
	`<body><img src="/img/a.png"><img src="http://cdn.other.com/b.png">` +
	`<a href="/next" onclick="orig()">go</a>` +
	`<form action="/search" method="get" onsubmit="return check(this)">` +
	`<input type="text" name="q" value=""></form></body></html>`

func TestGenerateContentNonCacheMode(t *testing.T) {
	doc := dom.Parse(testPage)
	before := dom.OuterHTML(doc.Root)
	nc, _ := generateContent(doc.Root, genOpts("http://www.site.com/", false, nil))

	// Step 1 invariant: the live document is untouched.
	if dom.OuterHTML(doc.Root) != before {
		t.Fatal("generateContent mutated the live document")
	}
	if nc.Body == nil {
		t.Fatal("no body in content")
	}
	body := nc.Body.Inner
	// Step 2: relative URLs became absolute.
	if !strings.Contains(body, `src="http://www.site.com/img/a.png"`) {
		t.Errorf("relative img not absolutized: %s", body)
	}
	if !strings.Contains(body, `src="http://cdn.other.com/b.png"`) {
		t.Errorf("already-absolute img altered: %s", body)
	}
	// Head children carry the converted stylesheet/script URLs.
	var foundCSS, foundJS bool
	for _, h := range nc.Head {
		for _, a := range h.Attrs {
			if a.Value == "http://www.site.com/s.css" {
				foundCSS = true
			}
			if a.Value == "http://www.site.com/app.js" {
				foundJS = true
			}
		}
	}
	if !foundCSS || !foundJS {
		t.Errorf("head object URLs not converted: %+v", nc.Head)
	}
}

func TestGenerateContentCacheMode(t *testing.T) {
	doc := dom.Parse(testPage)
	cached := map[string]bool{
		"http://www.site.com/img/a.png": true,
		// The CDN image and css/js are NOT cached → stay absolute.
	}
	nc, _ := generateContent(doc.Root, genOpts("http://www.site.com/", true, cached))
	body := nc.Body.Inner
	if !strings.Contains(body, `src="http://host.lan:3000/obj/t1"`) {
		t.Errorf("cached object not rewritten to agent URL: %s", body)
	}
	if !strings.Contains(body, `src="http://cdn.other.com/b.png"`) {
		t.Errorf("uncached object must stay at origin (per-object mode mixing): %s", body)
	}
}

func TestGenerateContentEventRewriting(t *testing.T) {
	doc := dom.Parse(testPage)
	nc, _ := generateContent(doc.Root, genOpts("http://www.site.com/", false, nil))
	body := nc.Body.Inner

	// Step 4: the form's onsubmit gained the snippet call, preserving the
	// original handler after it.
	if !strings.Contains(body, `onsubmit="return __rcb.submit(this); return check(this)"`) {
		t.Errorf("form onsubmit not rewritten: %s", body)
	}
	if !strings.Contains(body, `onclick="return __rcb.click(this); orig()"`) {
		t.Errorf("link onclick not rewritten: %s", body)
	}
	// Interactive elements carry data-rcb paths.
	parsed := dom.ParseFragment(body, "body")
	container := dom.NewElement("body")
	for _, n := range parsed {
		container.AppendChild(n)
	}
	form := container.Find(func(n *dom.Node) bool { return n.Tag == "form" })
	if form == nil || !form.HasAttr(RCBAttr) {
		t.Fatal("form has no data-rcb attribute")
	}
	input := container.Find(func(n *dom.Node) bool { return n.Tag == "input" })
	if input == nil || !input.HasAttr(RCBAttr) {
		t.Fatal("input has no data-rcb attribute")
	}
	if !strings.Contains(input.AttrOr("onchange", ""), "__rcb.input(this)") {
		t.Error("input onchange not rewritten")
	}
}

func TestRCBPathsMatchHostDocument(t *testing.T) {
	// The path stamped on the participant copy must resolve to the
	// corresponding element of the (un-rewritten) host document.
	hostDoc := dom.Parse(testPage)
	nc, _ := generateContent(hostDoc.Root, genOpts("http://www.site.com/", false, nil))

	// Rebuild the participant's view of the body.
	participant := dom.NewElement("body")
	for _, n := range dom.ParseFragment(nc.Body.Inner, "body") {
		participant.AppendChild(n)
	}
	pForm := participant.Find(func(n *dom.Node) bool { return n.Tag == "form" })
	path := pForm.AttrOr(RCBAttr, "")
	if path == "" {
		t.Fatal("no path on participant form")
	}
	hostEl := ResolvePath(hostDoc.Root, path)
	if hostEl == nil || hostEl.Tag != "form" {
		t.Fatalf("path %q resolves to %v on host", path, hostEl)
	}
	if hostEl.AttrOr("action", "") != "/search" {
		t.Errorf("resolved wrong form: %v", hostEl.Attrs)
	}
}

func TestMergeFormData(t *testing.T) {
	doc := dom.Parse(`<body><form id="f">` +
		`<input type="text" name="name" value="">` +
		`<input type="text" name="zip" value="">` +
		`<textarea name="notes"></textarea>` +
		`<input type="submit" value="Go"></form></body>`)
	form := doc.ByID("f")
	n := mergeFormData(form, map[string]string{
		"name":  "Alice",
		"notes": "ring bell",
		"bogus": "ignored",
	})
	if n != 2 {
		t.Fatalf("merged %d fields, want 2", n)
	}
	vals := formValues(form)
	byName := map[string]string{}
	for _, v := range vals {
		byName[v.Name] = v.Value
	}
	if byName["name"] != "Alice" || byName["notes"] != "ring bell" || byName["zip"] != "" {
		t.Fatalf("values = %v", byName)
	}
}

func TestPrependHandler(t *testing.T) {
	if got := prependHandler("a();", ""); got != "a();" {
		t.Errorf("got %q", got)
	}
	if got := prependHandler("a();", "b()"); got != "a(); b()" {
		t.Errorf("got %q", got)
	}
}

// FindByRCBAttr locates the element carrying the given data-rcb value.
func FindByRCBAttr(root *dom.Node, path string) *dom.Node {
	return root.Find(func(n *dom.Node) bool {
		return n.Type == dom.ElementNode && n.AttrOr(RCBAttr, "") == path
	})
}

func TestFindByRCBAttr(t *testing.T) {
	doc := dom.Parse(`<body><div data-rcb="1.0">x</div><div data-rcb="1.1">y</div></body>`)
	if el := FindByRCBAttr(doc.Root, "1.1"); el == nil || el.TextContent() != "y" {
		t.Fatalf("found %v", el)
	}
	if FindByRCBAttr(doc.Root, "9.9") != nil {
		t.Error("missing path must be nil")
	}
}
