// Package dom implements the HTML document object model that the RCB
// framework operates on: a tokenizing parser, a mutable node tree, innerHTML
// and outerHTML serialization, deep cloning, and the query and mutation
// operations RCB-Agent and Ajax-Snippet perform (paper §4.1.2 and §4.2.2).
//
// RCB-Agent clones the live documentElement, rewrites URLs and event
// attributes on the clone, and extracts attribute name-value lists and
// innerHTML values from top-level children. Ajax-Snippet applies the same
// representations back onto the participant document. Those operations define
// the required surface of this package; it is not a full HTML5 parser, but it
// is tolerant of the malformed constructs found on real homepages (unclosed
// tags, unquoted attributes, raw script/style text).
package dom

import (
	"fmt"
	"strings"
)

// NodeType discriminates tree node kinds.
type NodeType int

const (
	// ElementNode is a tag with attributes and children.
	ElementNode NodeType = iota
	// TextNode holds raw character data (entities are preserved verbatim).
	TextNode
	// CommentNode holds the text between <!-- and -->.
	CommentNode
	// DoctypeNode holds the text of a <!DOCTYPE ...> declaration.
	DoctypeNode
)

// String returns a short human-readable name for the node type.
func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DoctypeNode:
		return "doctype"
	}
	return fmt.Sprintf("NodeType(%d)", int(t))
}

// Attr is one attribute name-value pair. Order is preserved from the source
// document: RCB serializes attribute name-value lists and order stability
// keeps host and participant documents byte-comparable.
type Attr struct {
	Name  string
	Value string
}

// Node is a single DOM tree node. The zero value is an empty text node.
type Node struct {
	Type     NodeType
	Tag      string // lowercased element name; empty for non-elements
	Data     string // text, comment or doctype payload
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewElement returns a parentless element node with the given tag
// (lowercased) and no attributes.
func NewElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
}

// NewText returns a parentless text node carrying data verbatim.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// NewComment returns a parentless comment node.
func NewComment(data string) *Node {
	return &Node{Type: CommentNode, Data: data}
}

// Attr returns the value of the named attribute and whether it is present.
// Lookup is case-insensitive, matching HTML attribute semantics.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if strings.EqualFold(a.Name, name) {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports whether the named attribute is present.
func (n *Node) HasAttr(name string) bool {
	_, ok := n.Attr(name)
	return ok
}

// SetAttr sets the named attribute, replacing an existing value in place (so
// attribute order is stable) or appending a new pair.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if strings.EqualFold(a.Name, name) {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: strings.ToLower(name), Value: value})
}

// AppendChild adds c as the last child of n, detaching it from any previous
// parent first.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil {
		c.Parent.RemoveChild(c)
	}
	c.Parent = n
	n.Children = append(n.Children, c)
}

// InsertBefore inserts c as a child of n immediately before ref. If ref is
// nil or not a child of n, c is appended.
func (n *Node) InsertBefore(c, ref *Node) {
	if c.Parent != nil {
		c.Parent.RemoveChild(c)
	}
	idx := -1
	if ref != nil {
		for i, ch := range n.Children {
			if ch == ref {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		n.AppendChild(c)
		return
	}
	c.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[idx+1:], n.Children[idx:])
	n.Children[idx] = c
}

// RemoveChild detaches c from n. It is a no-op when c is not a child of n.
func (n *Node) RemoveChild(c *Node) {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return
		}
	}
}

// RemoveAllChildren detaches every child of n.
func (n *Node) RemoveAllChildren() {
	for _, c := range n.Children {
		c.Parent = nil
	}
	n.Children = nil
}

// ReplaceChildren replaces n's children with the given nodes.
func (n *Node) ReplaceChildren(nodes ...*Node) {
	n.RemoveAllChildren()
	for _, c := range nodes {
		n.AppendChild(c)
	}
}

// Clone returns a deep copy of n with no parent. This is the operation
// RCB-Agent performs on the live documentElement before rewriting URLs and
// event attributes (paper Figure 3, step 1): all later mutation happens on
// the clone so the host document is never disturbed.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, 0, len(n.Children))
		for _, ch := range n.Children {
			cc := ch.Clone()
			cc.Parent = c
			c.Children = append(c.Children, cc)
		}
	}
	return c
}

// Walk visits n and every descendant in document order. Returning false from
// fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) {
	var rec func(*Node) bool
	rec = func(cur *Node) bool {
		if !fn(cur) {
			return false
		}
		for _, c := range cur.Children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(n)
}

// Find returns the first node (in document order, including n itself)
// satisfying pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(cur *Node) bool {
		if pred(cur) {
			found = cur
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node (in document order, including n itself)
// satisfying pred.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(cur *Node) bool {
		if pred(cur) {
			out = append(out, cur)
		}
		return true
	})
	return out
}

// ElementsByTag returns all descendant elements (and possibly n itself) with
// the given tag name, lowercased comparison.
func (n *Node) ElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.FindAll(func(c *Node) bool {
		return c.Type == ElementNode && c.Tag == tag
	})
}

// ElementByID returns the first descendant element with the given id
// attribute, or nil.
func (n *Node) ElementByID(id string) *Node {
	return n.Find(func(c *Node) bool {
		if c.Type != ElementNode {
			return false
		}
		v, ok := c.Attr("id")
		return ok && v == id
	})
}

// FirstChildElement returns the first child of n that is an element with the
// given tag, or nil. Empty tag matches any element.
func (n *Node) FirstChildElement(tag string) *Node {
	tag = strings.ToLower(tag)
	for _, c := range n.Children {
		if c.Type == ElementNode && (tag == "" || c.Tag == tag) {
			return c
		}
	}
	return nil
}

// ChildElements returns the element children of n in order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// TextContent concatenates the data of every descendant text node.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.Walk(func(c *Node) bool {
		if c.Type == TextNode {
			b.WriteString(c.Data)
		}
		return true
	})
	return b.String()
}

// CountNodes returns the number of nodes in the subtree rooted at n,
// including n itself.
func (n *Node) CountNodes() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// Document is a parsed HTML document: an optional doctype plus the <html>
// documentElement. Root is never nil for documents produced by Parse.
type Document struct {
	Doctype string // raw text of the doctype declaration, without <! and >
	Root    *Node  // the <html> element
}

// Head returns the document's <head> element, creating an empty one as the
// first child of the root if absent.
func (d *Document) Head() *Node {
	if h := d.Root.FirstChildElement("head"); h != nil {
		return h
	}
	h := NewElement("head")
	if len(d.Root.Children) > 0 {
		d.Root.InsertBefore(h, d.Root.Children[0])
	} else {
		d.Root.AppendChild(h)
	}
	return h
}

// Body returns the document's <body> element, or nil when the document uses
// a frameset instead.
func (d *Document) Body() *Node {
	return d.Root.FirstChildElement("body")
}

// ByID is a convenience alias for Root.ElementByID.
func (d *Document) ByID(id string) *Node { return d.Root.ElementByID(id) }

// ByTag is a convenience alias for Root.ElementsByTag.
func (d *Document) ByTag(tag string) []*Node { return d.Root.ElementsByTag(tag) }
