package dom

import (
	"strings"
	"sync"
)

// appendEscapeAttr escapes an attribute value for double-quoted
// serialization.
func appendEscapeAttr(b []byte, s string) []byte {
	if !strings.ContainsAny(s, `&"<`) {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			b = append(b, "&amp;"...)
		case '"':
			b = append(b, "&quot;"...)
		case '<':
			b = append(b, "&lt;"...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// serializePool recycles scratch buffers for the string-returning
// serializers so repeated generation passes do not regrow from zero.
var serializePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// OuterHTML serializes n including its own tag.
func OuterHTML(n *Node) string {
	bp := serializePool.Get().(*[]byte)
	b := AppendOuterHTML((*bp)[:0], n)
	s := string(b)
	*bp = b
	serializePool.Put(bp)
	return s
}

// AppendOuterHTML appends n's serialization (including its own tag) to dst.
func AppendOuterHTML(dst []byte, n *Node) []byte {
	return appendNode(dst, n)
}

// InnerHTML serializes n's children only — the value RCB-Agent extracts for
// each top-level child of the cloned document and carries inside a CDATA
// section (paper Figure 4).
func InnerHTML(n *Node) string {
	bp := serializePool.Get().(*[]byte)
	b := AppendInnerHTML((*bp)[:0], n)
	s := string(b)
	*bp = b
	serializePool.Put(bp)
	return s
}

// AppendInnerHTML appends the serialization of n's children to dst.
func AppendInnerHTML(dst []byte, n *Node) []byte {
	for _, c := range n.Children {
		dst = appendNode(dst, c)
	}
	return dst
}

func appendNode(b []byte, n *Node) []byte {
	switch n.Type {
	case TextNode:
		// Text is preserved verbatim: the parser does not decode entities in
		// character data, so round trips are byte-stable.
		b = append(b, n.Data...)
	case CommentNode:
		b = append(b, "<!--"...)
		b = append(b, n.Data...)
		b = append(b, "-->"...)
	case DoctypeNode:
		b = append(b, "<!"...)
		b = append(b, n.Data...)
		b = append(b, '>')
	case ElementNode:
		b = append(b, '<')
		b = append(b, n.Tag...)
		for _, a := range n.Attrs {
			b = append(b, ' ')
			b = append(b, a.Name...)
			b = append(b, `="`...)
			b = appendEscapeAttr(b, a.Value)
			b = append(b, '"')
		}
		b = append(b, '>')
		if voidElements[n.Tag] {
			return b
		}
		for _, c := range n.Children {
			b = appendNode(b, c)
		}
		b = append(b, "</"...)
		b = append(b, n.Tag...)
		b = append(b, '>')
	}
	return b
}

// HTML serializes the whole document, including the doctype when present.
func (d *Document) HTML() string {
	bp := serializePool.Get().(*[]byte)
	b := (*bp)[:0]
	if d.Doctype != "" {
		b = append(b, "<!"...)
		b = append(b, d.Doctype...)
		b = append(b, '>')
	}
	b = appendNode(b, d.Root)
	s := string(b)
	*bp = b
	serializePool.Put(bp)
	return s
}
