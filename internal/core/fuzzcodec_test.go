package core

// Native fuzz target for the full Figure 4 decoder. ImportState and every
// participant feed disk and network bytes into Unmarshal, so its contract
// is absolute: arbitrary input produces a hard error or a message, never a
// panic. The one-pass tag scan must also decode exactly what the original
// substring-search decoder did, on every input and not just well-formed
// ones; that decoder is kept below verbatim as the reference, as
// jsescape_test.go keeps the rune-at-a-time unescape().

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rcb/internal/dom"
	"rcb/internal/jsescape"
	"rcb/internal/sites"
)

// refUnmarshal is the original Figure 4 decoder: one substring search per
// element, over a string copy of the message.
func refUnmarshal(data []byte) (*NewContent, error) {
	s := string(data)
	c := &NewContent{}
	docTime, ok := refElementText(s, "docTime")
	if !ok {
		return nil, fmt.Errorf("core: message has no docTime")
	}
	t, err := strconv.ParseInt(strings.TrimSpace(docTime), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("core: bad docTime %q", docTime)
	}
	c.DocTime = t

	if content, ok := refElementText(s, "docContent"); ok {
		c.HasDocument = true
		if headSec, ok := refElementText(content, "docHead"); ok {
			head, err := refParseHeadSection(headSec)
			if err != nil {
				return nil, err
			}
			c.Head = head
		}
		if payload, ok := refElementText(content, "docBody"); ok {
			te, err := refParseTopElementPayload(jsescape.Unescape(refStripCDATA(payload)))
			if err != nil {
				return nil, err
			}
			c.Body = te
		}
		if payload, ok := refElementText(content, "docFrameSet"); ok {
			te, err := refParseTopElementPayload(jsescape.Unescape(refStripCDATA(payload)))
			if err != nil {
				return nil, err
			}
			c.FrameSet = te
		}
		if payload, ok := refElementText(content, "docNoFrames"); ok {
			te, err := refParseTopElementPayload(jsescape.Unescape(refStripCDATA(payload)))
			if err != nil {
				return nil, err
			}
			c.NoFrames = te
		}
	}
	if payload, ok := refElementText(s, "userActions"); ok {
		actions, err := DecodeActions(jsescape.Unescape(refStripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		c.UserActions = actions
	}
	return c, nil
}

// refUnmarshalDelta is the original deltaContent decoder.
func refUnmarshalDelta(data []byte) (*DeltaContent, error) {
	s := string(data)
	d := &DeltaContent{}
	docTime, ok := refElementText(s, "docTime")
	if !ok {
		return nil, fmt.Errorf("core: delta message has no docTime")
	}
	t, err := strconv.ParseInt(strings.TrimSpace(docTime), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("core: bad delta docTime %q", docTime)
	}
	d.DocTime = t
	base, ok := refElementText(s, "baseDocTime")
	if !ok {
		return nil, fmt.Errorf("core: delta message has no baseDocTime")
	}
	if d.BaseDocTime, err = strconv.ParseInt(strings.TrimSpace(base), 10, 64); err != nil {
		return nil, fmt.Errorf("core: bad baseDocTime %q", base)
	}
	if headSec, ok := refElementText(s, "docHead"); ok {
		d.HasHead = true
		if d.Head, err = refParseHeadSection(headSec); err != nil {
			return nil, err
		}
	}
	for _, region := range []struct {
		name string
		dst  *[]dom.Patch
	}{{"bodyPatch", &d.Body}, {"framesetPatch", &d.FrameSet}, {"noframesPatch", &d.NoFrames}} {
		payload, ok := refElementText(s, region.name)
		if !ok {
			continue
		}
		patches, err := decodePatches(jsescape.Unescape(refStripCDATA(payload)))
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", region.name, err)
		}
		*region.dst = patches
	}
	if payload, ok := refElementText(s, "userActions"); ok {
		actions, err := DecodeActions(jsescape.Unescape(refStripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		d.UserActions = actions
	}
	return d, nil
}

func refParseHeadSection(headSec string) ([]HeadChild, error) {
	var head []HeadChild
	for i := 1; ; i++ {
		payload, ok := refElementText(headSec, "hChild"+strconv.Itoa(i))
		if !ok {
			break
		}
		h, err := refParseHeadChildPayload(jsescape.Unescape(refStripCDATA(payload)))
		if err != nil {
			return nil, err
		}
		head = append(head, h)
	}
	return head, nil
}

func refParseHeadChildPayload(s string) (HeadChild, error) {
	parts := strings.SplitN(s, "\n", 3)
	if len(parts) != 3 {
		return HeadChild{}, fmt.Errorf("core: malformed head child payload")
	}
	return HeadChild{Tag: parts[0], Attrs: decodeAttrs(parts[1]), Inner: parts[2]}, nil
}

func refParseTopElementPayload(s string) (*TopElement, error) {
	parts := strings.SplitN(s, "\n", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("core: malformed top element payload")
	}
	return &TopElement{Attrs: decodeAttrs(parts[0]), Inner: parts[1]}, nil
}

func refElementText(s, name string) (string, bool) {
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

func refStripCDATA(s string) string {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "<![CDATA[") && strings.HasSuffix(t, "]]>") {
		return t[len("<![CDATA[") : len(t)-len("]]>")]
	}
	return t
}

// FuzzUnmarshal checks the Figure 4 decoder on arbitrary bytes:
//
//   - Unmarshal and refUnmarshal both fail, or both succeed with equal
//     messages;
//   - a successful parse re-marshals to a fixed point: Marshal of the
//     result parses again and re-marshals byte-identically;
//   - the decoded message shares no memory with the input: scribbling over
//     the input afterwards leaves it unchanged.
func FuzzUnmarshal(f *testing.F) {
	spec, _ := sites.SiteByName("msn.com")
	msn := ContentFromDocument(dom.Parse(sites.GeneratePage(spec, sites.Inventory(spec))).Root, 1700000000000)
	f.Add(msn.Marshal())
	astral := ContentFromDocument(dom.Parse(nonASCIIPage).Root, 1700000000001)
	astral.UserActions = []Action{{Kind: ActionFormInput, Target: "1.0", Value: "Straße ✓ 𝄞", From: "p1", Seq: 3}}
	f.Add(astral.Marshal())
	f.Add((&NewContent{DocTime: 5, UserActions: []Action{{Kind: ActionMouseMove, X: 1, Y: 2, From: "host"}}}).Marshal())
	small := sampleContent().Marshal()
	f.Add(small)
	// No </newContent>: the imported-build shape that once broke the
	// userActions splice.
	f.Add(bytes.TrimSuffix(small, []byte(closeNewContent)))
	f.Add(small[:len(small)/2]) // truncated mid-payload
	f.Add([]byte("<docTime>1</docTime><docContent><docHead><hChild2><![CDATA[b%0A%0A]]></hChild2>" +
		"<hChild1><![CDATA[a%0A%0A]]></hChild1><hChild1>x</hChild1></docHead>" +
		"<docBody>%0Afirst</docBody><docBody>%0Asecond</docBody></docContent>")) // out of order, duplicated
	f.Add([]byte("<docContent><docBody>%0A</docBody></docContent><docTime> 7 </docTime>"))                    // docTime last
	f.Add([]byte("<docTime>3</docTime><docContent><docHead><hChild1>t%0Aa</hChild1></docHead></docContent>")) // malformed child
	f.Add([]byte("<docTime>3</docTime><docContent><docBody><docHead></docBody></docHead></docContent>"))      // crossed
	f.Add([]byte("<docTime>3</docTime><userActions><![CDATA[%5B%7B%22kind%22%3A%22click%22%7D%5D]]></userActions"))
	f.Add([]byte("<docTime>3</docTime><docContent><docBody> <![CDATA[%0A<p>raw</p>]]> </docBody></docContent>"))
	f.Add([]byte("<docTime>-0</docTime><docContent><docHead><hChild01><![CDATA[z%0A%0A]]></hChild01>" +
		"<hChild1><![CDATA[a%0A%0A]]></hChild1></docHead></docContent>")) // a leading zero is another name

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMessageSizeCap {
			t.Skip()
		}
		want, wantErr := refUnmarshal(data)
		in := bytes.Clone(data)
		got, err := Unmarshal(in)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Unmarshal error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i := range in {
			in[i] = '#'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unmarshal = %+v\nreference %+v", got, want)
		}
		m1 := got.Marshal()
		again, err := Unmarshal(m1)
		if err != nil {
			t.Fatalf("re-parse of marshaled message failed: %v\nmarshaled: %q", err, m1)
		}
		if m2 := again.Marshal(); !bytes.Equal(m1, m2) {
			t.Errorf("marshal not stable:\nm1: %q\nm2: %q", m1, m2)
		}
	})
}

// fuzzMessageSizeCap admits the msn.com snapshot seed (~66 KB) while
// keeping mutation on structure rather than megabyte runs.
const fuzzMessageSizeCap = 1 << 17
