package core

// The deltaContent wire message: the incremental sibling of Figure 4's
// newContent. When a participant acknowledges the docTime of any build the
// agent still retains in its delta-base ring, the agent may answer with an
// edit script computed by dom.Diff between that build's tree and the
// current one instead of the full payload — O(change) bytes and an
// O(change) participant-side apply, the delta discipline CRDT systems use
// (PAPERS.md: Collabs). The message is versioned against the acknowledged
// base and the agent falls back to the full snapshot on a first poll, a
// base that fell off the ring, a top-level region change, or when the
// delta would not actually be smaller.
//
// Shape (same envelope conventions as newContent — every variable payload
// rides escape()d inside CDATA):
//
//	<?xml version='1.0' encoding='utf-8'?>
//	<deltaContent>
//	<docTime>T</docTime>
//	<baseDocTime>B</baseDocTime>
//	<docHead> ... numbered hChild elements, present only when the head changed ... </docHead>
//	<bodyPatch><![CDATA[escape(patch script)]]></bodyPatch>
//	<framesetPatch>...</framesetPatch>
//	<noframesPatch>...</noframesPatch>
//	<userActions>...</userActions>
//	</deltaContent>
//
// Patch scripts are encoded with a length-prefixed text codec (see
// appendPatches) that carries subtrees as exact node structures, never as
// re-parsed HTML, so a delta reproduces the agent's tree byte-for-byte.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/jsescape"
)

// DeltaContent is one incremental synchronization message. A nil/empty
// patch slice means that region is untouched since the base version.
type DeltaContent struct {
	// DocTime is the timestamp of the document content this delta produces.
	DocTime int64
	// BaseDocTime is the timestamp the participant must currently hold for
	// the patch scripts to apply; it is the ts value the participant
	// acknowledged on its polling request.
	BaseDocTime int64
	// HasHead reports that the head changed; Head then carries the full new
	// head children (the head is small and rebuilt element by element on the
	// participant, so it ships whole rather than as patches).
	HasHead bool
	Head    []HeadChild
	// Body, FrameSet and NoFrames carry the edit scripts for each top-level
	// region, addressed relative to that region's element.
	Body     []dom.Patch
	FrameSet []dom.Patch
	NoFrames []dom.Patch
	// UserActions carries other users' actions for mirroring, exactly as on
	// newContent.
	UserActions []Action
}

const closeDeltaContent = "</deltaContent>\n"

// deltaPreamble is the fixed prefix every marshaled delta message starts
// with; MessageIsDelta keys on it.
const deltaPreamble = "<?xml version='1.0' encoding='utf-8'?>\n<deltaContent>\n"

// MessageIsDelta reports whether a poll response body is a deltaContent
// message (as opposed to Figure 4's newContent).
func MessageIsDelta(data []byte) bool {
	return bytes.HasPrefix(data, []byte(deltaPreamble))
}

// ErrDeltaBase reports a deltaContent message whose baseDocTime is not the
// docTime the client acknowledged: patching any other base would corrupt
// the replica silently, so the client drops the message and resyncs.
var ErrDeltaBase = errors.New("rcb: delta base does not match the acknowledged docTime")

// msgHeader is what a protocol client reads from a message without decoding
// its payloads: the kind, the docTime, a delta's base, and whether a full
// message carries a document at all (one without only mirrors actions).
type msgHeader struct {
	delta   bool
	docTime int64
	base    int64
	hasDoc  bool
}

var (
	docTimeOpen     = []byte("<docTime>")
	baseDocTimeOpen = []byte("<baseDocTime>")
	docContentOpen  = []byte("<docContent>")
)

// readMsgHeader scans a newContent or deltaContent message's header. Every
// variable payload rides escape()d, so no raw '<' can occur inside one and
// the first occurrence of each tag is the element itself. A delta without a
// baseDocTime reads as base 0, which no delta poll acknowledges.
func readMsgHeader(body []byte) (msgHeader, error) {
	m := msgHeader{delta: MessageIsDelta(body)}
	var ok bool
	if m.docTime, ok = tagInt(body, docTimeOpen); !ok {
		return m, fmt.Errorf("core: message has no docTime")
	}
	if m.delta {
		m.base, _ = tagInt(body, baseDocTimeOpen)
		m.hasDoc = true
	} else {
		m.hasDoc = bytes.Contains(body, docContentOpen)
	}
	return m, nil
}

// tagInt returns the decimal value that follows the first occurrence of
// open in body.
func tagInt(body, open []byte) (int64, bool) {
	i := bytes.Index(body, open)
	if i < 0 {
		return 0, false
	}
	var v int64
	j := i + len(open)
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		v = v*10 + int64(body[j]-'0')
	}
	return v, j > i+len(open)
}

// Marshal renders the delta message.
func (d *DeltaContent) Marshal() []byte {
	return d.AppendMarshal(make([]byte, 0, 512))
}

// AppendMarshal appends the rendered message to dst.
func (d *DeltaContent) AppendMarshal(dst []byte) []byte {
	dst = append(dst, deltaPreamble...)
	dst = append(dst, "<docTime>"...)
	dst = strconv.AppendInt(dst, d.DocTime, 10)
	dst = append(dst, "</docTime>\n<baseDocTime>"...)
	dst = strconv.AppendInt(dst, d.BaseDocTime, 10)
	dst = append(dst, "</baseDocTime>\n"...)
	if d.HasHead {
		dst = append(dst, "<docHead>\n"...)
		for i, h := range d.Head {
			dst = append(dst, "<hChild"...)
			dst = strconv.AppendInt(dst, int64(i+1), 10)
			dst = append(dst, "><![CDATA["...)
			dst = appendHeadChildPayload(dst, h)
			dst = append(dst, "]]></hChild"...)
			dst = strconv.AppendInt(dst, int64(i+1), 10)
			dst = append(dst, ">\n"...)
		}
		dst = append(dst, "</docHead>\n"...)
	}
	dst = appendRegionPatch(dst, "bodyPatch", d.Body)
	dst = appendRegionPatch(dst, "framesetPatch", d.FrameSet)
	dst = appendRegionPatch(dst, "noframesPatch", d.NoFrames)
	if len(d.UserActions) > 0 {
		dst = appendUserActions(dst, d.UserActions)
	}
	dst = append(dst, closeDeltaContent...)
	return dst
}

func appendRegionPatch(dst []byte, name string, patches []dom.Patch) []byte {
	if len(patches) == 0 {
		return dst
	}
	dst = append(dst, '<')
	dst = append(dst, name...)
	dst = append(dst, "><![CDATA["...)
	dst = jsescape.AppendEscape(dst, appendPatches(nil, patches))
	dst = append(dst, "]]></"...)
	dst = append(dst, name...)
	dst = append(dst, ">\n"...)
	return dst
}

// UnmarshalDelta parses a deltaContent message with the same tag scan and
// payload unescaping as Unmarshal; every element is the first of its name
// in the message.
func UnmarshalDelta(data []byte) (*DeltaContent, error) {
	var tokBuf [64]msgToken
	toks := scanTags(data, tokBuf[:0])
	lo, hi, _, ok := element(toks, tagDocTime)
	if !ok {
		return nil, fmt.Errorf("core: delta message has no docTime")
	}
	d := &DeltaContent{}
	var err error
	if d.DocTime, err = parseTimestamp("delta docTime", data[lo:hi]); err != nil {
		return nil, err
	}
	if lo, hi, _, ok = element(toks, tagBaseDocTime); !ok {
		return nil, fmt.Errorf("core: delta message has no baseDocTime")
	}
	if d.BaseDocTime, err = parseTimestamp("baseDocTime", data[lo:hi]); err != nil {
		return nil, err
	}
	var head [][]byte
	if _, _, headToks, ok := element(toks, tagDocHead); ok {
		d.HasHead = true
		head = headChildren(data, headToks)
	}
	regions := [...]struct {
		tag     msgTag
		name    string
		dst     *[]dom.Patch
		payload []byte
		ok      bool
	}{
		{tag: tagBodyPatch, name: "bodyPatch", dst: &d.Body},
		{tag: tagFramesetPatch, name: "framesetPatch", dst: &d.FrameSet},
		{tag: tagNoframesPatch, name: "noframesPatch", dst: &d.NoFrames},
	}
	for i := range regions {
		r := &regions[i]
		if lo, hi, _, r.ok = element(toks, r.tag); r.ok {
			r.payload = stripCDATA(data[lo:hi])
		}
	}
	var actions []byte
	lo, hi, _, hasActions := element(toks, tagUserActions)
	if hasActions {
		actions = stripCDATA(data[lo:hi])
	}

	u := newUnescaper(head, regions[0].payload, regions[1].payload, regions[2].payload, actions)
	if d.Head, err = decodeHead(u, head); err != nil {
		return nil, err
	}
	for _, r := range regions {
		if !r.ok {
			continue
		}
		patches, err := decodePatches(u.text(r.payload))
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", r.name, err)
		}
		*r.dst = patches
	}
	if hasActions {
		if d.UserActions, err = DecodeActions(u.text(actions)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Patch script codec: a compact length-prefixed text encoding. Integers are
// decimal terminated by ';'; strings are "<len>:<bytes>"; nodes are a type
// letter followed by their fields. Subtrees travel as exact structures so
// decode(encode(patches)) reproduces the script without any HTML re-parse —
// the property the dom-level harness proves end to end.
//
//	script  := int(count) patch*
//	patch   := 'A' str(path) int(nattrs) attr*
//	         | 'T' str(path) str(text)
//	         | 'R' str(path)
//	         | 'I' str(path) int(index) node
//	         | 'P' str(path) node
//	attr    := str(name) str(value)
//	node    := 'e' str(tag) int(nattrs) attr* int(nchildren) node*
//	         | 't' str(data) | 'c' str(data) | 'd' str(data)

func appendCodecInt(dst []byte, v int) []byte {
	dst = strconv.AppendInt(dst, int64(v), 10)
	return append(dst, ';')
}

func appendCodecStr(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

func appendCodecAttrs(dst []byte, attrs []dom.Attr) []byte {
	dst = appendCodecInt(dst, len(attrs))
	for _, a := range attrs {
		dst = appendCodecStr(dst, a.Name)
		dst = appendCodecStr(dst, a.Value)
	}
	return dst
}

func appendCodecNode(dst []byte, n *dom.Node) []byte {
	switch n.Type {
	case dom.ElementNode:
		dst = append(dst, 'e')
		dst = appendCodecStr(dst, n.Tag)
		dst = appendCodecAttrs(dst, n.Attrs)
		dst = appendCodecInt(dst, len(n.Children))
		for _, c := range n.Children {
			dst = appendCodecNode(dst, c)
		}
	case dom.TextNode:
		dst = append(dst, 't')
		dst = appendCodecStr(dst, n.Data)
	case dom.CommentNode:
		dst = append(dst, 'c')
		dst = appendCodecStr(dst, n.Data)
	default: // DoctypeNode
		dst = append(dst, 'd')
		dst = appendCodecStr(dst, n.Data)
	}
	return dst
}

// appendPatches encodes an edit script.
func appendPatches(dst []byte, patches []dom.Patch) []byte {
	dst = appendCodecInt(dst, len(patches))
	for i := range patches {
		p := &patches[i]
		switch p.Op {
		case dom.OpSetAttrs:
			dst = append(dst, 'A')
			dst = appendCodecStr(dst, p.Path)
			dst = appendCodecAttrs(dst, p.Attrs)
		case dom.OpSetText:
			dst = append(dst, 'T')
			dst = appendCodecStr(dst, p.Path)
			dst = appendCodecStr(dst, p.Text)
		case dom.OpRemove:
			dst = append(dst, 'R')
			dst = appendCodecStr(dst, p.Path)
		case dom.OpInsert:
			dst = append(dst, 'I')
			dst = appendCodecStr(dst, p.Path)
			dst = appendCodecInt(dst, p.Index)
			dst = appendCodecNode(dst, p.Node)
		case dom.OpReplace:
			dst = append(dst, 'P')
			dst = appendCodecStr(dst, p.Path)
			dst = appendCodecNode(dst, p.Node)
		}
	}
	return dst
}

// codecReader walks an encoded script with bounds checking; every decode
// error is a hard error (the snippet falls back to a full resync).
type codecReader struct {
	s   string
	pos int
}

func (r *codecReader) errf(format string, args ...any) error {
	return fmt.Errorf("core: patch codec at %d: %s", r.pos, fmt.Sprintf(format, args...))
}

func (r *codecReader) byte() (byte, error) {
	if r.pos >= len(r.s) {
		return 0, r.errf("unexpected end")
	}
	b := r.s[r.pos]
	r.pos++
	return b, nil
}

func (r *codecReader) int() (int, error) {
	start := r.pos
	neg := false
	if r.pos < len(r.s) && r.s[r.pos] == '-' {
		neg = true
		r.pos++
	}
	v := 0
	for r.pos < len(r.s) && r.s[r.pos] >= '0' && r.s[r.pos] <= '9' {
		if v > (1<<31)/10 {
			return 0, r.errf("integer overflow")
		}
		v = v*10 + int(r.s[r.pos]-'0')
		r.pos++
	}
	if r.pos == start || (neg && r.pos == start+1) {
		return 0, r.errf("expected integer")
	}
	if r.pos >= len(r.s) || r.s[r.pos] != ';' {
		return 0, r.errf("integer missing terminator")
	}
	r.pos++
	if neg {
		v = -v
	}
	return v, nil
}

func (r *codecReader) str() (string, error) {
	start := r.pos
	n := 0
	for r.pos < len(r.s) && r.s[r.pos] >= '0' && r.s[r.pos] <= '9' {
		if n > (1<<31)/10 {
			return "", r.errf("string length overflow")
		}
		n = n*10 + int(r.s[r.pos]-'0')
		r.pos++
	}
	if r.pos == start || r.pos >= len(r.s) || r.s[r.pos] != ':' {
		return "", r.errf("expected string length")
	}
	r.pos++
	if r.pos+n > len(r.s) {
		return "", r.errf("string length %d past end", n)
	}
	s := r.s[r.pos : r.pos+n]
	r.pos += n
	return s, nil
}

func (r *codecReader) attrs() ([]dom.Attr, error) {
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > len(r.s)-r.pos {
		return nil, r.errf("implausible attr count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	attrs := make([]dom.Attr, n)
	for i := range attrs {
		if attrs[i].Name, err = r.str(); err != nil {
			return nil, err
		}
		if attrs[i].Value, err = r.str(); err != nil {
			return nil, err
		}
	}
	return attrs, nil
}

func (r *codecReader) node() (*dom.Node, error) {
	kind, err := r.byte()
	if err != nil {
		return nil, err
	}
	n := &dom.Node{}
	switch kind {
	case 'e':
		n.Type = dom.ElementNode
		if n.Tag, err = r.str(); err != nil {
			return nil, err
		}
		if n.Attrs, err = r.attrs(); err != nil {
			return nil, err
		}
		count, err := r.int()
		if err != nil {
			return nil, err
		}
		if count < 0 || count > len(r.s)-r.pos {
			return nil, r.errf("implausible child count %d", count)
		}
		for i := 0; i < count; i++ {
			c, err := r.node()
			if err != nil {
				return nil, err
			}
			c.Parent = n
			n.Children = append(n.Children, c)
		}
	case 't', 'c', 'd':
		switch kind {
		case 't':
			n.Type = dom.TextNode
		case 'c':
			n.Type = dom.CommentNode
		default:
			n.Type = dom.DoctypeNode
		}
		if n.Data, err = r.str(); err != nil {
			return nil, err
		}
	default:
		return nil, r.errf("unknown node kind %q", kind)
	}
	return n, nil
}

// decodePatches decodes an edit script.
func decodePatches(s string) ([]dom.Patch, error) {
	r := &codecReader{s: s}
	count, err := r.int()
	if err != nil {
		return nil, err
	}
	if count < 0 || count > len(s) {
		return nil, r.errf("implausible patch count %d", count)
	}
	patches := make([]dom.Patch, 0, count)
	for i := 0; i < count; i++ {
		op, err := r.byte()
		if err != nil {
			return nil, err
		}
		var p dom.Patch
		if p.Path, err = r.str(); err != nil {
			return nil, err
		}
		switch op {
		case 'A':
			p.Op = dom.OpSetAttrs
			if p.Attrs, err = r.attrs(); err != nil {
				return nil, err
			}
		case 'T':
			p.Op = dom.OpSetText
			if p.Text, err = r.str(); err != nil {
				return nil, err
			}
		case 'R':
			p.Op = dom.OpRemove
		case 'I':
			p.Op = dom.OpInsert
			if p.Index, err = r.int(); err != nil {
				return nil, err
			}
			if p.Index < 0 {
				return nil, r.errf("negative insert index %d", p.Index)
			}
			if p.Node, err = r.node(); err != nil {
				return nil, err
			}
		case 'P':
			p.Op = dom.OpReplace
			if p.Node, err = r.node(); err != nil {
				return nil, err
			}
		default:
			return nil, r.errf("unknown patch op %q", op)
		}
		patches = append(patches, p)
	}
	if r.pos != len(s) {
		return nil, r.errf("trailing bytes after script")
	}
	return patches, nil
}

// preparedDelta is one cached, encoded delta response: the incremental
// counterpart of PreparedContent, keyed by its (base, target) docTime pair
// and shared by every participant acknowledging that base.
type preparedDelta struct {
	baseDocTime int64
	docTime     int64
	xml         []byte
	// splice is the offset of the closing </deltaContent> tag, for the
	// per-participant userActions insertion.
	splice int
	resp   *httpwire.Response
}

// WithUserActions mirrors PreparedContent.WithUserActions for delta bytes.
func (d *preparedDelta) WithUserActions(actions []Action) []byte {
	if len(actions) == 0 {
		return d.xml
	}
	out := make([]byte, 0, len(d.xml)+spliceSizeHint(actions))
	out = append(out, d.xml[:d.splice]...)
	out = appendUserActions(out, actions)
	out = append(out, d.xml[d.splice:]...)
	return out
}
