package dom

import (
	"strconv"
	"strings"
	"testing"
)

// sameTree reports where two sibling lists differ structurally (type, tag,
// data, attributes, children, parent links), or "" when they match.
func sameTree(got, want []*Node, parent *Node, path string) string {
	if len(got) != len(want) {
		return path + ": " + strconv.Itoa(len(got)) + " children, want " + strconv.Itoa(len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		at := path + "." + strconv.Itoa(i)
		if g.Parent != parent {
			return at + ": wrong parent link"
		}
		if g.Type != w.Type || g.Tag != w.Tag || g.Data != w.Data {
			return at + ": node " + g.Type.String() + " <" + g.Tag + "> " + strconv.Quote(g.Data) +
				", want " + w.Type.String() + " <" + w.Tag + "> " + strconv.Quote(w.Data)
		}
		if len(g.Attrs) != len(w.Attrs) || (len(g.Attrs) > 0 && !attrListsEqual(g.Attrs, w.Attrs)) {
			return at + ": attributes differ"
		}
		if d := sameTree(g.Children, w.Children, g, at); d != "" {
			return d
		}
	}
	return ""
}

// canonContexts are the context tags FuzzCanonicalize picks from: ordinary
// containers, a tag that implies ends, and raw-text contexts.
var canonContexts = []string{"body", "div", "p", "tr", "ul", "script", "textarea"}

// canonTags are the element tags the fuzz edits insert, including an
// uppercase one and tags that implicitly close their parent.
var canonTags = []string{"p", "li", "td", "b", "br", "script", "DIV", "span", "img"}

// canonAttrNames are the attribute names the fuzz edits set, valid and not.
var canonAttrNames = []string{"class", "ID", "data-x", "a b", "", "x=y", "on:click"}

// applyCanonEdits drives DOM-API edits no parse produces — split and empty
// text runs, uppercase tags, markup moved under void and raw-text
// elements, '<' in text, "-->" in comments — from three-byte op codes.
func applyCanonEdits(root *Node, edits []byte) {
	for len(edits) >= 3 {
		op, a, b := edits[0], int(edits[1]), int(edits[2])
		edits = edits[3:]
		nodes := allNodes(root)
		n := nodes[a%len(nodes)]
		switch op % 9 {
		case 0: // split a text run in two
			if n.Type == TextNode && n != root && len(n.Data) > 0 {
				k := b % (len(n.Data) + 1)
				tail := NewText(n.Data[k:])
				n.Data = n.Data[:k]
				next := nextSibling(n)
				n.Parent.InsertBefore(tail, next)
			}
		case 1: // insert an empty text node
			if n.Type == ElementNode {
				insertAt(n, NewText(""), b)
			}
		case 2: // uppercase a tag
			if n.Type == ElementNode && n != root {
				n.Tag = strings.ToUpper(n.Tag)
			}
		case 3: // move a subtree under another node
			dest := nodes[b%len(nodes)]
			if n != root && dest.Type == ElementNode && !inSubtree(n, dest) {
				n.Parent.RemoveChild(n)
				dest.AppendChild(n)
			}
		case 4: // '<' in text
			if n.Type == TextNode {
				n.Data += "<" + string(rune('a'+b%3))
			}
		case 5: // "-->" in a comment
			if n.Type == CommentNode {
				n.Data += "-->"
			} else if n.Type == ElementNode {
				insertAt(n, NewComment("c"), b)
			}
		case 6: // set an attribute by raw name
			if n.Type == ElementNode && n != root {
				n.Attrs = append(n.Attrs, Attr{Name: canonAttrNames[b%len(canonAttrNames)], Value: "v\"&<"})
			}
		case 7: // insert an element
			if n.Type == ElementNode {
				insertAt(n, rawElement(canonTags[b%len(canonTags)]), b/16)
			}
		case 8: // insert a text node
			if n.Type == ElementNode {
				insertAt(n, NewText([]string{"t", "</script", "&amp;", " "}[b%4]), b/4)
			}
		}
	}
}

// rawElement builds an element without lowercasing its tag, as a DOM-API
// caller can.
func rawElement(tag string) *Node { return &Node{Type: ElementNode, Tag: tag} }

func nextSibling(n *Node) *Node {
	for i, c := range n.Parent.Children {
		if c == n && i+1 < len(n.Parent.Children) {
			return n.Parent.Children[i+1]
		}
	}
	return nil
}

func insertAt(parent, c *Node, i int) {
	if len(parent.Children) == 0 {
		parent.AppendChild(c)
		return
	}
	parent.InsertBefore(c, parent.Children[i%len(parent.Children)])
}

// FuzzCanonicalize checks Canonicalize against the round trip it replaces:
// whenever it vouches for a tree, the tree equals ParseFragment of its own
// serialization node for node; whether or not it does, the serialization
// is unchanged.
func FuzzCanonicalize(f *testing.F) {
	seeds := []struct {
		ctx   uint8
		src   string
		edits []byte
	}{
		{0, "<p>a</p>b", []byte{0, 2, 1, 1, 0, 0, 1, 3, 5}}, // split and empty text runs
		{1, "a<b>c</b>d", []byte{4, 1, 0}},                  // '<' in text
		{0, "<div><span>x</span></div>", []byte{2, 1, 0}},   // uppercase tag
		{0, "<div><p>x</p></div>", []byte{7, 2, 0}},         // <p> inside <p>
		{0, "<script>var s</script>", []byte{8, 1, 1}},      // </script inside a script
		{5, "x", []byte{7, 0, 2, 0, 0, 0}},                  // markup in a raw-text context
		{3, "<td>a</td>", []byte{7, 1, 2}},                  // <td> inside <td>
		{0, "<br><img src=x>", []byte{3, 2, 1}},             // child under a void element
		{0, "<!--c--><i>y</i>", []byte{5, 1, 0, 6, 2, 3}},   // "-->" in a comment, odd attr
		{2, "< a & b <3", nil},                              // parse-produced '<' texts
		{0, "<ul><li>1<li>2</ul><table><tr><td>a</table>", []byte{0, 4, 1, 1, 3, 0, 6, 1, 2}},
	}
	for _, s := range seeds {
		f.Add(s.ctx, s.src, s.edits)
	}
	f.Fuzz(func(t *testing.T, ctx uint8, src string, edits []byte) {
		if len(src) > fuzzSizeCap || len(edits) > 3*64 {
			t.Skip()
		}
		root := NewElement(canonContexts[int(ctx)%len(canonContexts)])
		root.ReplaceChildren(ParseFragment(src, "div")...)
		applyCanonEdits(root, edits)
		orig := InnerHTML(root)
		ok := Canonicalize(root)
		if got := InnerHTML(root); got != orig {
			t.Fatalf("Canonicalize (ok=%v) changed the serialization:\n got %q\nwant %q", ok, got, orig)
		}
		if !ok {
			return
		}
		if d := sameTree(root.Children, ParseFragment(orig, root.Tag), root, ""); d != "" {
			t.Fatalf("canonical tree differs from the re-parse at %s\nctx %s html %q", d, root.Tag, orig)
		}
	})
}

// TestCanonicalizeVerdicts pins the round-trip rules on hand-built trees.
func TestCanonicalizeVerdicts(t *testing.T) {
	el := func(tag string, kids ...*Node) *Node {
		n := rawElement(tag)
		for _, k := range kids {
			n.AppendChild(k)
		}
		return n
	}
	cases := []struct {
		name string
		root *Node
		ok   bool
		kids int // children of root after a successful canonicalization
	}{
		{"adjacent and empty texts merge", el("body", NewText("a"), NewText(""), NewText("b"), el("i"), NewText("")), true, 2},
		{"only empty text", el("body", NewText("")), true, 0},
		{"lt in text", el("body", NewText("a<b")), false, 0},
		{"uppercase tag", el("body", el("DIV")), false, 0},
		{"p inside p", el("body", el("p", el("p"))), false, 0},
		{"p directly under a p context", el("p", el("p")), true, 1},
		{"td inside td", el("body", el("table", el("tr", el("td", el("td"))))), false, 0},
		{"void with children", el("body", el("br", NewText("x"))), false, 0},
		{"script holding markup", el("body", el("script", el("b"))), false, 0},
		{"script holding its close tag", el("body", el("script", NewText("a</SCRIPT b"))), false, 0},
		{"script text runs merge", el("body", el("script", NewText("a<"), NewText("b"))), true, 1},
		{"raw-text context", el("script", NewText("<b>"), NewText("x")), true, 1},
		{"comment closer", el("body", NewComment("a-->b")), false, 0},
		{"doctype", el("body", &Node{Type: DoctypeNode, Data: "html"}), false, 0},
		{"uppercase attribute", el("body", &Node{Type: ElementNode, Tag: "a", Attrs: []Attr{{Name: "HREF"}}}), false, 0},
		{"attribute values escape", el("body", &Node{Type: ElementNode, Tag: "a", Attrs: []Attr{{Name: "title", Value: `"<&amp;>`}}}), true, 1},
	}
	for _, c := range cases {
		orig := InnerHTML(c.root)
		ok := Canonicalize(c.root)
		if ok != c.ok {
			t.Errorf("%s: Canonicalize = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if got := InnerHTML(c.root); got != orig {
			t.Errorf("%s: serialization changed: %q → %q", c.name, orig, got)
		}
		if !ok {
			continue
		}
		if len(c.root.Children) != c.kids {
			t.Errorf("%s: %d children after canonicalization, want %d", c.name, len(c.root.Children), c.kids)
		}
		if d := sameTree(c.root.Children, ParseFragment(orig, c.root.Tag), c.root, ""); d != "" {
			t.Errorf("%s: differs from the re-parse at %s", c.name, d)
		}
	}
}
