package dom

import "strings"

// Canonicalize rewrites n's descendants in place into the tree that
// ParseFragment(InnerHTML(n), n.Tag) would build, without serializing or
// parsing: adjacent text nodes merge and empty ones drop, the two
// differences DOM-API mutation leaves between a live tree and its re-parse.
// It reports false when some descendant would not survive the round trip at
// all — text holding '<', a comment holding "-->", a doctype, a tag or
// attribute name the tokenizer would read back differently, a void element
// with children, a raw-text element holding markup or its own close tag, or
// an element whose start tag implicitly closes its parent. The tree is then
// only partly rewritten and must not be used as the parse; n's InnerHTML is
// unchanged either way.
func Canonicalize(n *Node) bool {
	if IsRawText(n.Tag) {
		// Fragment parsing in a raw-text context yields one text node.
		return canonicalRawText(n, false)
	}
	return canonicalChildren(n, true)
}

// canonicalChildren merges and drops n's text children, then checks and
// recurses into each remaining child. top marks the fragment's context
// element: its children are opened under ParseFragment's container, which
// no start tag implicitly closes.
func canonicalChildren(n *Node, top bool) bool {
	mergeTexts(n)
	for _, c := range n.Children {
		if !canonicalNode(c, n, top) {
			return false
		}
	}
	return true
}

// canonicalNode checks one child of parent and canonicalizes its subtree.
func canonicalNode(c, parent *Node, parentTop bool) bool {
	switch c.Type {
	case TextNode:
		return plainLeaf(c) && strings.IndexByte(c.Data, '<') < 0
	case CommentNode:
		return plainLeaf(c) && !strings.Contains(c.Data, "-->")
	case ElementNode:
	default:
		return false
	}
	if c.Data != "" || !validTagName(c.Tag) {
		return false
	}
	for _, a := range c.Attrs {
		if !validAttrName(a.Name) {
			return false
		}
	}
	if !parentTop && impliedEndByOpen[c.Tag][parent.Tag] {
		return false
	}
	switch {
	case voidElements[c.Tag]:
		return len(c.Children) == 0
	case rawTextElements[c.Tag]:
		return canonicalRawText(c, true)
	}
	return canonicalChildren(c, false)
}

// canonicalRawText collapses a raw-text container's children into the
// single text node the tokenizer reads back. closed marks a container
// serialized with its own close tag, which the text must not contain.
func canonicalRawText(n *Node, closed bool) bool {
	for _, c := range n.Children {
		if c.Type != TextNode || !plainLeaf(c) {
			return false
		}
	}
	mergeTexts(n)
	if closed && len(n.Children) == 1 && asciiIndexFold(n.Children[0].Data, "</"+n.Tag) >= 0 {
		return false
	}
	return true
}

// mergeTexts drops n's empty text children and folds each run of adjacent
// text children into its first node. Serialization is unchanged.
func mergeTexts(n *Node) {
	kids := n.Children[:0]
	for _, c := range n.Children {
		if c.Type == TextNode {
			if c.Data == "" {
				c.Parent = nil
				continue
			}
			if last := len(kids) - 1; last >= 0 && kids[last].Type == TextNode {
				kids[last].Data += c.Data
				c.Parent = nil
				continue
			}
		}
		kids = append(kids, c)
	}
	clear(n.Children[len(kids):])
	if len(kids) == 0 {
		kids = nil
	}
	n.Children = kids
}

// plainLeaf reports whether a text or comment node carries nothing the
// serializer would drop.
func plainLeaf(n *Node) bool {
	return n.Tag == "" && len(n.Attrs) == 0 && len(n.Children) == 0
}

// validTagName reports whether the tokenizer reads tag back unchanged: a
// lowercase letter followed by lowercase letters, digits, '-' or ':'.
func validTagName(tag string) bool {
	if tag == "" || tag[0] < 'a' || tag[0] > 'z' {
		return false
	}
	for i := 1; i < len(tag); i++ {
		if c := tag[i]; !isTagNameByte(c) || c >= 'A' && c <= 'Z' {
			return false
		}
	}
	return true
}

// validAttrName reports whether the tokenizer reads an attribute name back
// unchanged: printable ASCII, no uppercase, no quote and none of the bytes
// that end a name or a tag.
func validAttrName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c <= ' ' || c > '~' || c >= 'A' && c <= 'Z' || strings.IndexByte(`"'/<=>`, c) >= 0 {
			return false
		}
	}
	return true
}
