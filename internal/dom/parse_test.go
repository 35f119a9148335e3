package dom

import (
	"strings"
	"testing"
)

func TestParseMinimalDocument(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><html><head><title>Hi</title></head><body><p>x</p></body></html>`)
	if doc.Doctype != "DOCTYPE html" {
		t.Errorf("doctype = %q", doc.Doctype)
	}
	if doc.Root.Tag != "html" {
		t.Fatalf("root tag = %q", doc.Root.Tag)
	}
	head := doc.Head()
	if head == nil || head.FirstChildElement("title") == nil {
		t.Fatal("missing head/title")
	}
	if got := head.FirstChildElement("title").TextContent(); got != "Hi" {
		t.Errorf("title = %q", got)
	}
	body := doc.Body()
	if body == nil {
		t.Fatal("missing body")
	}
	if p := body.FirstChildElement("p"); p == nil || p.TextContent() != "x" {
		t.Errorf("body p wrong: %v", OuterHTML(body))
	}
}

func TestParseSynthesizesSkeleton(t *testing.T) {
	doc := Parse(`<p>hello</p>`)
	if doc.Root.Tag != "html" {
		t.Fatal("no html root")
	}
	if doc.Head() == nil {
		t.Fatal("no head")
	}
	body := doc.Body()
	if body == nil {
		t.Fatal("no body")
	}
	if p := body.FirstChildElement("p"); p == nil || p.TextContent() != "hello" {
		t.Errorf("content not relocated into body: %s", doc.HTML())
	}
}

func TestParseHoistsHeadishElements(t *testing.T) {
	doc := Parse(`<title>T</title><meta charset="utf-8"><div>d</div>`)
	head := doc.Head()
	if head.FirstChildElement("title") == nil {
		t.Error("title not hoisted to head")
	}
	if head.FirstChildElement("meta") == nil {
		t.Error("meta not hoisted to head")
	}
	if doc.Body().FirstChildElement("div") == nil {
		t.Error("div not placed in body")
	}
}

func TestParseAttributes(t *testing.T) {
	doc := Parse(`<html><body><a href="http://x/y?a=1&amp;b=2" class='c d' data-n=5 disabled>z</a></body></html>`)
	a := doc.Root.ElementsByTag("a")[0]
	if v, _ := a.Attr("href"); v != "http://x/y?a=1&b=2" {
		t.Errorf("href = %q (entity not decoded?)", v)
	}
	if v, _ := a.Attr("class"); v != "c d" {
		t.Errorf("class = %q", v)
	}
	if v, _ := a.Attr("data-n"); v != "5" {
		t.Errorf("data-n = %q", v)
	}
	if v, ok := a.Attr("disabled"); !ok || v != "" {
		t.Errorf("disabled = %q ok=%v", v, ok)
	}
}

func TestParseAttributeCaseInsensitive(t *testing.T) {
	doc := Parse(`<body><form ACTION="/go" onSubmit="f()"></form></body>`)
	f := doc.Root.ElementsByTag("form")[0]
	if v, _ := f.Attr("action"); v != "/go" {
		t.Errorf("action = %q", v)
	}
	if v, _ := f.Attr("onsubmit"); v != "f()" {
		t.Errorf("onsubmit = %q", v)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<body><img src="a.png"><br><input name="q"><p>after</p></body>`)
	body := doc.Body()
	if len(body.ElementsByTag("img")) != 1 || len(body.ElementsByTag("br")) != 1 {
		t.Fatalf("void elements missing: %s", OuterHTML(body))
	}
	img := body.ElementsByTag("img")[0]
	if len(img.Children) != 0 {
		t.Error("img should have no children")
	}
	// p must be a sibling, not nested inside input.
	if p := body.FirstChildElement("p"); p == nil {
		t.Errorf("p not at body level: %s", OuterHTML(body))
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := Parse(`<body><div id="a"/><span>s</span></body>`)
	// Self-closing non-void: treated as empty element (XHTML style).
	div := doc.ByID("a")
	if div == nil {
		t.Fatal("div missing")
	}
	if len(div.Children) != 0 {
		t.Errorf("self-closed div has children: %s", OuterHTML(div))
	}
}

func TestParseScriptRawText(t *testing.T) {
	src := `<head><script>if (a < b && x > y) { document.write("<p>no</p>"); }</script></head>`
	doc := Parse(src)
	sc := doc.Head().FirstChildElement("script")
	if sc == nil {
		t.Fatal("script missing")
	}
	want := `if (a < b && x > y) { document.write("<p>no</p>"); }`
	if got := sc.TextContent(); got != want {
		t.Errorf("script text = %q, want %q", got, want)
	}
	// The <p> inside the string must NOT have become an element.
	if len(doc.Root.ElementsByTag("p")) != 0 {
		t.Error("script content was parsed as markup")
	}
}

func TestParseScriptCloseTagCaseInsensitive(t *testing.T) {
	doc := Parse(`<head><script>x=1</SCRIPT><title>T</title></head>`)
	if doc.Head().FirstChildElement("title") == nil {
		t.Fatalf("close tag case-insensitivity broken: %s", doc.HTML())
	}
}

func TestParseStyleRawText(t *testing.T) {
	doc := Parse(`<head><style>a > b { color: red; }</style></head>`)
	st := doc.Head().FirstChildElement("style")
	if st == nil || !strings.Contains(st.TextContent(), "a > b") {
		t.Fatalf("style raw text lost: %s", doc.HTML())
	}
}

func TestParseComments(t *testing.T) {
	doc := Parse(`<body><!-- a comment with <tags> inside --><p>x</p></body>`)
	var comments []*Node
	doc.Root.Walk(func(n *Node) bool {
		if n.Type == CommentNode {
			comments = append(comments, n)
		}
		return true
	})
	if len(comments) != 1 || !strings.Contains(comments[0].Data, "<tags>") {
		t.Fatalf("comment handling wrong: %v", comments)
	}
}

func TestParseImpliedEndTags(t *testing.T) {
	doc := Parse(`<body><ul><li>one<li>two<li>three</ul></body>`)
	ul := doc.Root.ElementsByTag("ul")[0]
	lis := ul.ChildElements()
	if len(lis) != 3 {
		t.Fatalf("want 3 sibling li, got %d: %s", len(lis), OuterHTML(ul))
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := lis[i].TextContent(); got != want {
			t.Errorf("li[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestParseTableImpliedEnds(t *testing.T) {
	doc := Parse(`<body><table><tr><td>a<td>b<tr><td>c</table></body>`)
	table := doc.Root.ElementsByTag("table")[0]
	trs := table.ElementsByTag("tr")
	if len(trs) != 2 {
		t.Fatalf("want 2 tr, got %d: %s", len(trs), OuterHTML(table))
	}
	if tds := trs[0].ElementsByTag("td"); len(tds) != 2 {
		t.Errorf("row 0: want 2 td, got %d", len(tds))
	}
}

func TestParseUnmatchedEndTagIgnored(t *testing.T) {
	doc := Parse(`<body><div>a</span>b</div></body>`)
	div := doc.Root.ElementsByTag("div")[0]
	if got := div.TextContent(); got != "ab" {
		t.Errorf("text = %q, want ab", got)
	}
}

func TestParseUnclosedElementsClosedAtEOF(t *testing.T) {
	doc := Parse(`<body><div><p>never closed`)
	if doc.Body() == nil {
		t.Fatal("body missing")
	}
	p := doc.Root.ElementsByTag("p")
	if len(p) != 1 || p[0].TextContent() != "never closed" {
		t.Fatalf("unclosed p lost: %s", doc.HTML())
	}
}

func TestParseFrameset(t *testing.T) {
	doc := Parse(`<html><head><title>f</title></head><frameset cols="50%,50%"><frame src="a.html"><frame src="b.html"></frameset><noframes>sorry</noframes></html>`)
	if doc.Body() != nil {
		t.Error("frameset page must have no body")
	}
	fs := doc.Root.FirstChildElement("frameset")
	if fs == nil {
		t.Fatal("frameset missing")
	}
	if frames := fs.ElementsByTag("frame"); len(frames) != 2 {
		t.Errorf("want 2 frames, got %d", len(frames))
	}
	if doc.Root.FirstChildElement("noframes") == nil {
		t.Error("noframes missing at top level")
	}
}

func TestParseLoneLessThanIsText(t *testing.T) {
	doc := Parse(`<body>a < b and a <3 b</body>`)
	if got := doc.Body().TextContent(); got != "a < b and a <3 b" {
		t.Errorf("text = %q", got)
	}
}

func TestParseEmptyInput(t *testing.T) {
	doc := Parse("")
	if doc.Root == nil || doc.Root.Tag != "html" {
		t.Fatal("empty input must still produce html root")
	}
	if doc.Head() == nil || doc.Body() == nil {
		t.Fatal("empty input must produce head and body")
	}
}

func TestParseHTMLAttrsFromLateTag(t *testing.T) {
	doc := Parse(`<html lang="en"><body>x</body></html>`)
	if v, _ := doc.Root.Attr("lang"); v != "en" {
		t.Errorf("lang = %q", v)
	}
}

func TestParseFragmentBasic(t *testing.T) {
	nodes := ParseFragment(`<b>x</b>plain<i>y</i>`, "div")
	if len(nodes) != 3 {
		t.Fatalf("want 3 nodes, got %d", len(nodes))
	}
	if nodes[0].Tag != "b" || nodes[1].Type != TextNode || nodes[2].Tag != "i" {
		t.Errorf("fragment structure wrong")
	}
	for _, n := range nodes {
		if n.Parent != nil {
			t.Error("fragment nodes must be parentless")
		}
	}
}

func TestParseFragmentNoSkeleton(t *testing.T) {
	nodes := ParseFragment(`<p>x</p>`, "body")
	if len(nodes) != 1 || nodes[0].Tag != "p" {
		t.Fatalf("fragment grew a skeleton: %v", nodes)
	}
}

func TestParseFragmentRawTextContext(t *testing.T) {
	nodes := ParseFragment(`a < b <i>not a tag</i>`, "script")
	if len(nodes) != 1 || nodes[0].Type != TextNode {
		t.Fatalf("script context must yield one text node, got %v", nodes)
	}
}

func TestSetInnerHTML(t *testing.T) {
	doc := Parse(`<body><div id="t"><span>old</span></div></body>`)
	div := doc.ByID("t")
	SetInnerHTML(div, `<em>new</em> text`)
	if got := InnerHTML(div); got != `<em>new</em> text` {
		t.Errorf("InnerHTML = %q", got)
	}
	if div.Children[0].Parent != div {
		t.Error("new children not parented")
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a&amp;b", "a&b"},
		{"&lt;&gt;", "<>"},
		{"&quot;q&quot;", `"q"`},
		{"&apos;", "'"},
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#x20AC;", "€"},
		{"&unknown;", "&unknown;"},
		{"a & b", "a & b"},
		{"&", "&"},
		{"&#;", "&#;"},
		{"100% &done", "100% &done"},
	}
	for _, c := range cases {
		if got := DecodeEntities(c.in); got != c.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseDeepNesting(t *testing.T) {
	var b strings.Builder
	b.WriteString("<body>")
	const depth = 500
	for i := 0; i < depth; i++ {
		b.WriteString("<div>")
	}
	b.WriteString("core")
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	b.WriteString("</body>")
	doc := Parse(b.String())
	divs := doc.Root.ElementsByTag("div")
	if len(divs) != depth {
		t.Fatalf("want %d divs, got %d", depth, len(divs))
	}
}
