package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/jsescape"
)

// The XML response content of Figure 4. Every payload travels inside a
// CDATA section encoded with JavaScript escape(), which guarantees the
// bytes are free of XML metacharacters (paper §4.1.2: "We use the escape
// encoding function and CDATA section to ensure that the response data can
// be precisely contained in an application/xml message").

// TopElement carries a top-level child of the cloned document (body,
// frameset, or noframes): its attribute name-value list and innerHTML.
type TopElement struct {
	Attrs []dom.Attr
	Inner string
}

// HeadChild carries one child element of the document head. Children are
// transmitted separately so the snippet can rebuild the head element by
// element on browsers whose head.innerHTML is read-only (paper §4.2.2).
type HeadChild struct {
	Tag   string
	Attrs []dom.Attr
	Inner string
}

// NewContent is one synchronization message from RCB-Agent to a
// participant.
type NewContent struct {
	// DocTime is the timestamp of the document content on the host browser
	// (milliseconds since the epoch in the paper; any monotonically
	// increasing value works for the protocol).
	DocTime int64
	// HasDocument reports whether this message carries document content.
	// Action-only messages (pointer mirroring with no page change) have
	// HasDocument == false.
	HasDocument bool
	Head        []HeadChild
	Body        *TopElement
	FrameSet    *TopElement
	NoFrames    *TopElement
	// UserActions carries other users' actions for mirroring.
	UserActions []Action
}

// appendAttrForm appends the form encoding of an attribute list, in order:
// httpwire.EncodeForm's bytes, without building its field slice.
func appendAttrForm(dst []byte, attrs []dom.Attr) []byte {
	for i, a := range attrs {
		if i > 0 {
			dst = append(dst, '&')
		}
		dst = httpwire.AppendForm(dst, []httpwire.FormField{{Name: a.Name, Value: a.Value}})
	}
	return dst
}

func decodeAttrs(s string) []dom.Attr {
	fields := httpwire.ParseForm(s)
	if len(fields) == 0 {
		return nil
	}
	attrs := make([]dom.Attr, len(fields))
	for i, f := range fields {
		attrs[i] = dom.Attr{Name: f.Name, Value: f.Value}
	}
	return attrs
}

// appendHeadChildPayload escape()s one head child's payload — tag,
// attribute list and innerHTML joined by newlines — into dst. The parts are
// encoded one by one rather than concatenated first: escape() works rune by
// rune and every part boundary is an ASCII newline, so the result is the
// encoding of the joined string without building it.
func appendHeadChildPayload(dst []byte, h HeadChild) []byte {
	dst = jsescape.AppendEscape(dst, h.Tag)
	dst = append(dst, escapedNewline...)
	return appendTopElementPayload(dst, h.Attrs, h.Inner)
}

// headChildPayloadLen is the length appendHeadChildPayload appends.
func headChildPayloadLen(h HeadChild) int {
	return jsescape.EscapedLen(h.Tag) + len(escapedNewline) + topElementPayloadLen(h.Attrs, h.Inner)
}

// escapedNewline is escape("\n"), the separator inside packed payloads.
const escapedNewline = "%0A"

func parseHeadChildPayload(s string) (HeadChild, error) {
	tag, rest, ok1 := strings.Cut(s, "\n")
	attrs, inner, ok2 := strings.Cut(rest, "\n")
	if !ok1 || !ok2 {
		return HeadChild{}, fmt.Errorf("core: malformed head child payload")
	}
	return HeadChild{Tag: tag, Attrs: decodeAttrs(attrs), Inner: inner}, nil
}

// appendTopElementPayload escape()s an attribute list and innerHTML,
// joined by a newline, into dst (see appendHeadChildPayload).
func appendTopElementPayload(dst []byte, attrs []dom.Attr, inner string) []byte {
	var form [256]byte
	dst = jsescape.AppendEscape(dst, appendAttrForm(form[:0], attrs))
	dst = append(dst, escapedNewline...)
	return jsescape.AppendEscape(dst, inner)
}

// topElementPayloadLen is the length appendTopElementPayload appends.
func topElementPayloadLen(attrs []dom.Attr, inner string) int {
	var form [256]byte
	return jsescape.EscapedLen(appendAttrForm(form[:0], attrs)) + len(escapedNewline) + jsescape.EscapedLen(inner)
}

func parseTopElementPayload(s string) (*TopElement, error) {
	attrs, inner, ok := strings.Cut(s, "\n")
	if !ok {
		return nil, fmt.Errorf("core: malformed top element payload")
	}
	return &TopElement{Attrs: decodeAttrs(attrs), Inner: inner}, nil
}

// closeNewContent is the fixed tail of every Figure 4 message. Prepared
// content records where it starts so per-participant userActions can be
// spliced in front of it without re-marshaling (see PreparedContent).
const closeNewContent = "</newContent>\n"

// Marshal renders the message in the exact shape of Figure 4, into a
// buffer sized for it up front: a document-only message — the snapshot a
// PreparedContent retains — fills it exactly.
func (c *NewContent) Marshal() []byte {
	return c.AppendMarshal(make([]byte, 0, c.marshaledLen()))
}

// marshaledLen returns the length of the message's Figure 4 rendering,
// counting each payload's escape() encoding without producing it. A
// userActions element is estimated (spliceSizeHint), not counted.
func (c *NewContent) marshaledLen() int {
	n := len(figure4Open) + decimalLen(c.DocTime) + len("</docTime>\n") + len(closeNewContent)
	if c.HasDocument {
		n += len("<docContent>\n<docHead>\n") + len("</docHead>\n") + len("</docContent>\n")
		for i, h := range c.Head {
			n += len("<hChild><![CDATA[]]></hChild>\n") + 2*decimalLen(int64(i+1)) + headChildPayloadLen(h)
		}
		for _, t := range [...]struct {
			name string
			el   *TopElement
		}{{"docBody", c.Body}, {"docFrameSet", c.FrameSet}, {"docNoFrames", c.NoFrames}} {
			if t.el != nil {
				n += len("<><![CDATA[]]></>\n") + 2*len(t.name) + topElementPayloadLen(t.el.Attrs, t.el.Inner)
			}
		}
	}
	if len(c.UserActions) > 0 {
		n += spliceSizeHint(c.UserActions)
	}
	return n
}

// figure4Open is the fixed head of every Figure 4 message, up to the
// docTime value.
const figure4Open = "<?xml version='1.0' encoding='utf-8'?>\n<newContent>\n<docTime>"

// decimalLen is the length of v in decimal.
func decimalLen(v int64) int {
	var b [20]byte
	return len(strconv.AppendInt(b[:0], v, 10))
}

// AppendMarshal appends the Figure 4 rendering of the message to dst and
// returns the extended slice. Payloads are escape()d directly into dst,
// part by part, with no intermediate payload strings.
func (c *NewContent) AppendMarshal(dst []byte) []byte {
	dst = append(dst, figure4Open...)
	dst = strconv.AppendInt(dst, c.DocTime, 10)
	dst = append(dst, "</docTime>\n"...)
	if c.HasDocument {
		dst = append(dst, "<docContent>\n<docHead>\n"...)
		for i, h := range c.Head {
			dst = append(dst, "<hChild"...)
			dst = strconv.AppendInt(dst, int64(i+1), 10)
			dst = append(dst, "><![CDATA["...)
			dst = appendHeadChildPayload(dst, h)
			dst = append(dst, "]]></hChild"...)
			dst = strconv.AppendInt(dst, int64(i+1), 10)
			dst = append(dst, ">\n"...)
		}
		dst = append(dst, "</docHead>\n"...)
		dst = appendTopElement(dst, "docBody", c.Body)
		dst = appendTopElement(dst, "docFrameSet", c.FrameSet)
		dst = appendTopElement(dst, "docNoFrames", c.NoFrames)
		dst = append(dst, "</docContent>\n"...)
	}
	if len(c.UserActions) > 0 {
		dst = appendUserActions(dst, c.UserActions)
	}
	dst = append(dst, closeNewContent...)
	return dst
}

func appendTopElement(dst []byte, name string, t *TopElement) []byte {
	if t == nil {
		return dst
	}
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, "><![CDATA["...)
	dst = appendTopElementPayload(dst, t.Attrs, t.Inner)
	dst = append(dst, "]]></"...)
	dst = append(dst, name...)
	dst = append(dst, ">\n"...)
	return dst
}

// appendUserActions appends a userActions element — shared by full marshals
// and the per-participant splice of PreparedContent.WithUserActions.
func appendUserActions(dst []byte, actions []Action) []byte {
	dst = append(dst, "<userActions><![CDATA["...)
	dst = jsescape.AppendEscape(dst, EncodeActions(actions))
	dst = append(dst, "]]></userActions>\n"...)
	return dst
}

// payloadLen returns the raw length of the message's document payloads. A
// lower bound on the marshaled length, since escape() never shrinks its
// input: the delta path compares against it before forcing a marshal.
func (c *NewContent) payloadLen() int {
	n := 0
	for _, h := range c.Head {
		n += len(h.Tag) + len(h.Inner)
	}
	for _, t := range [...]*TopElement{c.Body, c.FrameSet, c.NoFrames} {
		if t != nil {
			n += len(t.Inner)
		}
	}
	return n
}

// Unmarshal parses a Figure 4 message. Payload CDATA content is escape()
// encoded, so no raw '<' can occur inside payloads, and one scan for the
// element tags (scanTags) finds the whole structure: each element is the
// first start tag of its name inside its enclosing element and the first
// matching end tag after that, on any input. Each payload is then unescaped
// once, straight out of data into one buffer for the whole message, so the
// result shares no memory with data.
func Unmarshal(data []byte) (*NewContent, error) {
	var tokBuf [64]msgToken
	toks := scanTags(data, tokBuf[:0])
	lo, hi, _, ok := element(toks, tagDocTime)
	if !ok {
		return nil, fmt.Errorf("core: message has no docTime")
	}
	docTime, err := parseTimestamp("docTime", data[lo:hi])
	if err != nil {
		return nil, err
	}
	c := &NewContent{DocTime: docTime}

	var head [][]byte
	var regions [3][]byte
	var hasRegion [3]bool
	if _, _, content, ok := element(toks, tagDocContent); ok {
		c.HasDocument = true
		if _, _, headToks, ok := element(content, tagDocHead); ok {
			head = headChildren(data, headToks)
		}
		for i, tag := range [...]msgTag{tagDocBody, tagDocFrameSet, tagDocNoFrames} {
			if lo, hi, _, ok := element(content, tag); ok {
				regions[i], hasRegion[i] = stripCDATA(data[lo:hi]), true
			}
		}
	}
	var actions []byte
	lo, hi, _, hasActions := element(toks, tagUserActions)
	if hasActions {
		actions = stripCDATA(data[lo:hi])
	}

	u := newUnescaper(head, regions[0], regions[1], regions[2], actions)
	if c.Head, err = decodeHead(u, head); err != nil {
		return nil, err
	}
	for i, dst := range [...]**TopElement{&c.Body, &c.FrameSet, &c.NoFrames} {
		if hasRegion[i] {
			if *dst, err = parseTopElementPayload(u.text(regions[i])); err != nil {
				return nil, err
			}
		}
	}
	if hasActions {
		if c.UserActions, err = DecodeActions(u.text(actions)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// parseTimestamp parses the text of a docTime or baseDocTime element.
func parseTimestamp(name string, b []byte) (int64, error) {
	t, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad %s %q", name, b)
	}
	return t, nil
}

// decodeHead unescapes and parses the payloads of a docHead's hChild
// elements — shared by the full newContent and deltaContent decoders.
func decodeHead(u *unescaper, payloads [][]byte) ([]HeadChild, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	head := make([]HeadChild, len(payloads))
	for i, p := range payloads {
		var err error
		if head[i], err = parseHeadChildPayload(u.text(p)); err != nil {
			return nil, err
		}
	}
	return head, nil
}

// msgTag names an element the Figure 4 and deltaContent decoders read.
type msgTag uint8

const (
	tagNone msgTag = iota
	tagDocTime
	tagBaseDocTime
	tagDocContent
	tagDocHead
	tagHChild
	tagDocBody
	tagDocFrameSet
	tagDocNoFrames
	tagBodyPatch
	tagFramesetPatch
	tagNoframesPatch
	tagUserActions
)

// maxTagName bounds the name scanTags reads after a '<': the longest
// element name, or "hChild" and nine digits.
const maxTagName = len("hChild") + 9

// lookupTag identifies an element name. hChild numbers are decimal without
// leading zeros, as strconv.Itoa writes them; one too long to fit nine
// digits is never reached, since the children before it would not fit in
// any message.
func lookupTag(name []byte) (msgTag, int) {
	switch string(name) {
	case "docTime":
		return tagDocTime, 0
	case "baseDocTime":
		return tagBaseDocTime, 0
	case "docContent":
		return tagDocContent, 0
	case "docHead":
		return tagDocHead, 0
	case "docBody":
		return tagDocBody, 0
	case "docFrameSet":
		return tagDocFrameSet, 0
	case "docNoFrames":
		return tagDocNoFrames, 0
	case "bodyPatch":
		return tagBodyPatch, 0
	case "framesetPatch":
		return tagFramesetPatch, 0
	case "noframesPatch":
		return tagNoframesPatch, 0
	case "userActions":
		return tagUserActions, 0
	}
	digits, ok := bytes.CutPrefix(name, []byte("hChild"))
	if !ok || len(digits) == 0 || len(digits) > 9 || digits[0] == '0' {
		return tagNone, 0
	}
	n := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return tagNone, 0
		}
		n = n*10 + int(d-'0')
	}
	return tagHChild, n
}

// msgToken is one start or end tag of a known element: the byte offsets of
// its '<' and just past its '>'.
type msgToken struct {
	tag    msgTag
	end    bool
	n      int // the hChild number
	lo, hi int
}

// scanTags appends every start and end tag of a known element in data to
// toks, in order. A tag holds no '<' after its first byte, so each '<'
// starts at most one: the scan finds exactly the occurrences a substring
// search for "<name>" or "</name>" would, on any input.
func scanTags(data []byte, toks []msgToken) []msgToken {
	for i := 0; ; {
		j := bytes.IndexByte(data[i:], '<')
		if j < 0 {
			return toks
		}
		lo := i + j
		i = lo + 1
		name := data[i:]
		end := len(name) > 0 && name[0] == '/'
		if end {
			name = name[1:]
		}
		k := bytes.IndexByte(name[:min(len(name), maxTagName+1)], '>')
		if k < 0 {
			continue
		}
		if tag, n := lookupTag(name[:k]); tag != tagNone {
			hi := i + k + 1
			if end {
				hi++
			}
			toks = append(toks, msgToken{tag: tag, end: end, n: n, lo: lo, hi: hi})
		}
	}
}

// element finds the first start tag of tag among toks and the first end tag
// of it after that, returning the text between them as offsets into the
// scanned data and the tokens inside it. ok is false when either is
// missing.
func element(toks []msgToken, tag msgTag) (lo, hi int, inner []msgToken, ok bool) {
	for i, t := range toks {
		if t.tag != tag || t.end {
			continue
		}
		for j := i + 1; j < len(toks); j++ {
			if e := toks[j]; e.tag == tag && e.end {
				return t.hi, e.lo, toks[i+1 : j], true
			}
		}
		return 0, 0, nil, false
	}
	return 0, 0, nil, false
}

// headChildren resolves the numbered hChild elements among a docHead's
// tokens: for each number N from 1, the first <hChildN> and the first
// </hChildN> after it, until the first N that lacks either. It returns each
// child's CDATA content, in one pass over the tokens.
func headChildren(data []byte, toks []msgToken) [][]byte {
	starts := 0
	for _, t := range toks {
		if t.tag == tagHChild && !t.end {
			starts++
		}
	}
	if starts == 0 {
		return nil
	}
	// open[N-1] and close[N-1] are token indexes plus one; zero is unset.
	idx := make([]int, 2*starts)
	open, close := idx[:starts], idx[starts:]
	for i, t := range toks {
		if t.tag != tagHChild || t.n > starts {
			continue
		}
		switch k := t.n - 1; {
		case !t.end && open[k] == 0:
			open[k] = i + 1
		case t.end && open[k] != 0 && close[k] == 0:
			close[k] = i + 1
		}
	}
	payloads := make([][]byte, 0, starts)
	for k := 0; k < starts && close[k] != 0; k++ {
		payloads = append(payloads, stripCDATA(data[toks[open[k]-1].hi:toks[close[k]-1].lo]))
	}
	return payloads
}

// stripCDATA unwraps a <![CDATA[...]]> section, tolerating surrounding
// whitespace; non-CDATA text is returned as-is.
func stripCDATA(b []byte) []byte {
	t := bytes.TrimSpace(b)
	if bytes.HasPrefix(t, cdataOpen) && bytes.HasSuffix(t, cdataClose) {
		return t[len(cdataOpen) : len(t)-len(cdataClose)]
	}
	return t
}

var cdataOpen, cdataClose = []byte("<![CDATA["), []byte("]]>")

// unescaper decodes a message's payloads into one buffer, sized up front
// from their escaped lengths (unescape() output is no longer for ASCII
// text), and returns each as a string over its part of the buffer. Parts
// already handed out are never written again: later payloads only append.
type unescaper struct{ buf []byte }

func newUnescaper(head [][]byte, payloads ...[]byte) *unescaper {
	n := 0
	for _, p := range head {
		n += len(p)
	}
	for _, p := range payloads {
		n += len(p)
	}
	return &unescaper{buf: make([]byte, 0, n)}
}

func (u *unescaper) text(escaped []byte) string {
	start := len(u.buf)
	u.buf = jsescape.AppendUnescape(u.buf, escaped)
	if len(u.buf) == start {
		return ""
	}
	return unsafe.String(&u.buf[start], len(u.buf)-start)
}

// ContentFromDocument extracts a NewContent message from a cloned document
// element, following the paper's extraction order: head children first,
// then the remaining top-level children (body, or frameset plus noframes).
func ContentFromDocument(root *dom.Node, docTime int64) *NewContent {
	c, _ := extractContent(root, docTime)
	return c
}

// extractContent is ContentFromDocument that also returns the elements the
// region payloads were serialized from, in deltaRegionTags order.
func extractContent(root *dom.Node, docTime int64) (*NewContent, [3]*dom.Node) {
	c := &NewContent{DocTime: docTime, HasDocument: true}
	var regions [3]*dom.Node
	top := func(i int, el *dom.Node) *TopElement {
		regions[i] = el
		return &TopElement{Attrs: append([]dom.Attr(nil), el.Attrs...), Inner: dom.InnerHTML(el)}
	}
	for _, child := range root.ChildElements() {
		switch child.Tag {
		case "head":
			for _, hc := range child.ChildElements() {
				c.Head = append(c.Head, HeadChild{
					Tag:   hc.Tag,
					Attrs: append([]dom.Attr(nil), hc.Attrs...),
					Inner: dom.InnerHTML(hc),
				})
			}
		case "body":
			c.Body = top(0, child)
		case "frameset":
			c.FrameSet = top(1, child)
		case "noframes":
			c.NoFrames = top(2, child)
		}
	}
	return c, regions
}
