package dom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendRemoveChild(t *testing.T) {
	p := NewElement("div")
	a, b, c := NewText("a"), NewElement("span"), NewText("c")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	if len(p.Children) != 3 {
		t.Fatalf("children = %d", len(p.Children))
	}
	p.RemoveChild(b)
	if len(p.Children) != 2 || b.Parent != nil {
		t.Fatal("remove failed")
	}
	if p.Children[0] != a || p.Children[1] != c {
		t.Fatal("order wrong after remove")
	}
}

func TestAppendChildReparents(t *testing.T) {
	p1, p2 := NewElement("div"), NewElement("div")
	c := NewElement("span")
	p1.AppendChild(c)
	p2.AppendChild(c)
	if len(p1.Children) != 0 {
		t.Error("child not detached from old parent")
	}
	if c.Parent != p2 || len(p2.Children) != 1 {
		t.Error("child not attached to new parent")
	}
}

func TestInsertBefore(t *testing.T) {
	p := NewElement("div")
	a, b := NewText("a"), NewText("b")
	p.AppendChild(a)
	p.AppendChild(b)
	x := NewText("x")
	p.InsertBefore(x, b)
	if InnerHTML(p) != "axb" {
		t.Errorf("got %q", InnerHTML(p))
	}
	y := NewText("y")
	p.InsertBefore(y, nil) // append semantics
	if InnerHTML(p) != "axby" {
		t.Errorf("got %q", InnerHTML(p))
	}
}

func TestReplaceChildren(t *testing.T) {
	p := NewElement("div")
	old := NewText("old")
	p.AppendChild(old)
	n1, n2 := NewText("1"), NewText("2")
	p.ReplaceChildren(n1, n2)
	if InnerHTML(p) != "12" || old.Parent != nil {
		t.Fatalf("replace failed: %q", InnerHTML(p))
	}
}

func TestSetAttrPreservesOrder(t *testing.T) {
	n := NewElement("a")
	n.SetAttr("href", "x")
	n.SetAttr("class", "c")
	n.SetAttr("href", "y") // update in place
	if len(n.Attrs) != 2 || n.Attrs[1].Name != "class" {
		t.Fatalf("attrs = %v", n.Attrs)
	}
	if n.Attrs[0].Name != "href" || n.Attrs[0].Value != "y" {
		t.Fatalf("in-place update failed: %v", n.Attrs)
	}
}

func TestDelAttr(t *testing.T) {
	n := NewElement("a")
	n.SetAttr("href", "x")
	n.SetAttr("id", "i")
	n.DelAttr("HREF") // case-insensitive
	if n.HasAttr("href") || !n.HasAttr("id") {
		t.Fatalf("attrs = %v", n.Attrs)
	}
	n.DelAttr("missing") // no-op
}

func TestCloneDeepIndependence(t *testing.T) {
	doc := Parse(`<body><div id="a" class="x"><p>text</p><img src="i.png"></div></body>`)
	clone := doc.Root.Clone()
	if clone.Parent != nil {
		t.Error("clone must be parentless")
	}
	// Mutating the clone must not affect the original — the invariant the
	// paper relies on: "the content generation procedure will not cause any
	// state change to the current document on the host browser".
	cloneDiv := clone.ElementByID("a")
	cloneDiv.SetAttr("class", "mutated")
	SetInnerHTML(cloneDiv, "<b>gone</b>")
	origDiv := doc.ByID("a")
	if v, _ := origDiv.Attr("class"); v != "x" {
		t.Error("original attr mutated through clone")
	}
	if len(origDiv.ElementsByTag("p")) != 1 {
		t.Error("original children mutated through clone")
	}
}

func TestCloneEqualSerialization(t *testing.T) {
	doc := Parse(`<html><head><title>t</title><script>a<b</script></head><body><p class="c">x &amp; y</p><!--c--></body></html>`)
	if OuterHTML(doc.Root.Clone()) != OuterHTML(doc.Root) {
		t.Fatal("clone serializes differently")
	}
}

func TestElementByID(t *testing.T) {
	doc := Parse(`<body><div id="a"><span id="b">x</span></div><p id="c"></p></body>`)
	if doc.ByID("b") == nil || doc.ByID("b").Tag != "span" {
		t.Error("ByID b failed")
	}
	if doc.ByID("missing") != nil {
		t.Error("ByID missing should be nil")
	}
}

func TestFindAllAndWalkStop(t *testing.T) {
	doc := Parse(`<body><p>1</p><p>2</p><p>3</p></body>`)
	seen := 0
	doc.Root.Walk(func(n *Node) bool {
		if n.Type == ElementNode && n.Tag == "p" {
			seen++
			return seen < 2 // stop after the second p
		}
		return true
	})
	if seen != 2 {
		t.Fatalf("walk did not stop: seen=%d", seen)
	}
}

func TestTextContentNested(t *testing.T) {
	doc := Parse(`<body><div>a<span>b<i>c</i></span>d</div></body>`)
	if got := doc.Body().TextContent(); got != "abcd" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestCountNodes(t *testing.T) {
	doc := Parse(`<body><div><p>x</p></div></body>`)
	// html + head + body + div + p + text = 6
	if got := doc.Root.CountNodes(); got != 6 {
		t.Errorf("CountNodes = %d, want 6", got)
	}
}

// randomTree builds a random but serializable DOM tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	// Only tags without implied-end-tag semantics: a generated <li><li>
	// nesting would legitimately re-shape on reparse, which is not a
	// serializer bug.
	tags := []string{"div", "span", "b", "em", "u", "a", "form", "section", "article", "ul"}
	n := NewElement(tags[r.Intn(len(tags))])
	if r.Intn(2) == 0 {
		n.SetAttr("id", randomToken(r))
	}
	if r.Intn(2) == 0 {
		n.SetAttr("class", randomToken(r)+" "+randomToken(r))
	}
	if r.Intn(3) == 0 {
		n.SetAttr("data-v", `quote " amp & lt <`)
	}
	kids := r.Intn(4)
	for i := 0; i < kids; i++ {
		if depth <= 0 || r.Intn(2) == 0 {
			n.AppendChild(NewText(randomToken(r)))
		} else {
			n.AppendChild(randomTree(r, depth-1))
		}
	}
	return n
}

func randomToken(r *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func TestSerializeParseRoundTripProperty(t *testing.T) {
	// For any tree we can build, serialize→parse→serialize is a fixed point.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		html1 := OuterHTML(tree)
		nodes := ParseFragment(html1, "div")
		container := NewElement("div")
		for _, n := range nodes {
			container.AppendChild(n)
		}
		html2 := InnerHTML(container)
		return html1 == html2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDocumentRoundTripProperty(t *testing.T) {
	// Full documents: parse(serialize(parse(x))) == parse(x) structurally.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		body := randomTree(r, 3)
		doc := &Document{Doctype: "DOCTYPE html", Root: NewElement("html")}
		doc.Root.AppendChild(NewElement("head"))
		b := NewElement("body")
		b.AppendChild(body)
		doc.Root.AppendChild(b)
		html1 := doc.HTML()
		doc2 := Parse(html1)
		return doc2.HTML() == html1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		return tree.Clone().CountNodes() == tree.CountNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
