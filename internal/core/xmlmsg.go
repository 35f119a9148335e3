package core

import (
	"fmt"
	"strconv"
	"strings"

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

// encodeAttrs flattens an attribute list into form encoding, preserving
// order.
func encodeAttrs(attrs []dom.Attr) string {
	fields := make([]httpwire.FormField, len(attrs))
	for i, a := range attrs {
		fields[i] = httpwire.FormField{Name: a.Name, Value: a.Value}
	}
	return httpwire.EncodeForm(fields)
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

// escapedNewline is escape("\n"), the separator inside packed payloads.
const escapedNewline = "%0A"

func parseHeadChildPayload(s string) (HeadChild, error) {
	parts := strings.SplitN(s, "\n", 3)
	if len(parts) != 3 {
		return HeadChild{}, fmt.Errorf("core: malformed head child payload")
	}
	return HeadChild{Tag: parts[0], Attrs: decodeAttrs(parts[1]), Inner: parts[2]}, nil
}

// appendTopElementPayload escape()s an attribute list and innerHTML,
// joined by a newline, into dst (see appendHeadChildPayload).
func appendTopElementPayload(dst []byte, attrs []dom.Attr, inner string) []byte {
	dst = jsescape.AppendEscape(dst, encodeAttrs(attrs))
	dst = append(dst, escapedNewline...)
	return jsescape.AppendEscape(dst, inner)
}

func parseTopElementPayload(s string) (*TopElement, error) {
	parts := strings.SplitN(s, "\n", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("core: malformed top element payload")
	}
	return &TopElement{Attrs: decodeAttrs(parts[0]), Inner: parts[1]}, nil
}

// closeNewContent is the fixed tail of every Figure 4 message. Prepared
// content records where it starts so per-participant userActions can be
// spliced in front of it without re-marshaling (see PreparedContent).
const closeNewContent = "</newContent>\n"

// Marshal renders the message in the exact shape of Figure 4.
func (c *NewContent) Marshal() []byte {
	return c.AppendMarshal(make([]byte, 0, 1<<10))
}

// AppendMarshal appends the Figure 4 rendering of the message to dst and
// returns the extended slice. Payloads are escape()d directly into dst,
// part by part, with no intermediate payload strings.
func (c *NewContent) AppendMarshal(dst []byte) []byte {
	dst = append(dst, "<?xml version='1.0' encoding='utf-8'?>\n<newContent>\n<docTime>"...)
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
// encoded, so a lightweight scanner suffices: no raw '<' can occur inside
// payloads.
func Unmarshal(data []byte) (*NewContent, error) {
	s := string(data)
	c := &NewContent{}
	docTime, ok := elementText(s, "docTime")
	if !ok {
		return nil, fmt.Errorf("core: message has no docTime")
	}
	t, err := strconv.ParseInt(strings.TrimSpace(docTime), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("core: bad docTime %q", docTime)
	}
	c.DocTime = t

	if content, ok := elementText(s, "docContent"); ok {
		c.HasDocument = true
		if headSec, ok := elementText(content, "docHead"); ok {
			head, err := parseHeadSection(headSec)
			if err != nil {
				return nil, err
			}
			c.Head = head
		}
		if payload, ok := elementText(content, "docBody"); ok {
			te, err := parseTopElementPayload(jsescape.Unescape(stripCDATA(payload)))
			if err != nil {
				return nil, err
			}
			c.Body = te
		}
		if payload, ok := elementText(content, "docFrameSet"); ok {
			te, err := parseTopElementPayload(jsescape.Unescape(stripCDATA(payload)))
			if err != nil {
				return nil, err
			}
			c.FrameSet = te
		}
		if payload, ok := elementText(content, "docNoFrames"); ok {
			te, err := parseTopElementPayload(jsescape.Unescape(stripCDATA(payload)))
			if err != nil {
				return nil, err
			}
			c.NoFrames = te
		}
	}
	if payload, ok := elementText(s, "userActions"); ok {
		actions, err := DecodeActions(jsescape.Unescape(stripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		c.UserActions = actions
	}
	return c, nil
}

// parseHeadSection parses the numbered hChild elements of a docHead section
// — shared by the full newContent and deltaContent unmarshalers.
func parseHeadSection(headSec string) ([]HeadChild, error) {
	var head []HeadChild
	for i := 1; ; i++ {
		payload, ok := elementText(headSec, "hChild"+strconv.Itoa(i))
		if !ok {
			break
		}
		h, err := parseHeadChildPayload(jsescape.Unescape(stripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		head = append(head, h)
	}
	return head, nil
}

// elementText returns the text between <name> and </name> in s.
func elementText(s, name string) (string, bool) {
	open := "<" + name + ">"
	close := "</" + name + ">"
	i := strings.Index(s, open)
	if i < 0 {
		return "", false
	}
	rest := s[i+len(open):]
	j := strings.Index(rest, close)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// stripCDATA unwraps a <![CDATA[...]]> section, tolerating surrounding
// whitespace; non-CDATA text is returned as-is.
func stripCDATA(s string) string {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "<![CDATA[") && strings.HasSuffix(t, "]]>") {
		return t[len("<![CDATA[") : len(t)-len("]]>")]
	}
	return t
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
