package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

func sampleContent() *NewContent {
	return &NewContent{
		DocTime:     1234567890123,
		HasDocument: true,
		Head: []HeadChild{
			{Tag: "title", Inner: "My Page"},
			{Tag: "script", Attrs: []dom.Attr{{Name: "id", Value: "rcb-ajax-snippet"}}, Inner: "/*js*/"},
			{Tag: "style", Inner: "a > b { color: red } /* & < > */"},
		},
		Body: &TopElement{
			Attrs: []dom.Attr{{Name: "class", Value: "home"}, {Name: "onload", Value: `init("x")`}},
			Inner: `<div id="c"><a href="/x" onclick="return __rcb.click(this);">link</a>5 < 6 &amp; 7</div>`,
		},
		UserActions: []Action{{Kind: ActionMouseMove, X: 10, Y: 20, From: "host"}},
	}
}

func TestMarshalShapeMatchesFigure4(t *testing.T) {
	out := string(sampleContent().Marshal())
	for _, want := range []string{
		"<?xml version='1.0' encoding='utf-8'?>",
		"<newContent>", "</newContent>",
		"<docTime>1234567890123</docTime>",
		"<docContent>", "</docContent>",
		"<docHead>", "<hChild1><![CDATA[", "<hChild2><![CDATA[", "<hChild3><![CDATA[",
		"<docBody><![CDATA[",
		"<userActions><![CDATA[",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("marshal output missing %q:\n%s", want, out)
		}
	}
	// Raw page bytes must never appear unescaped inside the XML.
	if strings.Contains(out, "<div") || strings.Contains(out, "&amp;") {
		t.Error("payload leaked into XML unescaped")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	orig := sampleContent()
	got, err := Unmarshal(orig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.DocTime != orig.DocTime || !got.HasDocument {
		t.Fatalf("header fields: %+v", got)
	}
	if len(got.Head) != len(orig.Head) {
		t.Fatalf("head children: %d vs %d", len(got.Head), len(orig.Head))
	}
	for i := range orig.Head {
		if got.Head[i].Tag != orig.Head[i].Tag || got.Head[i].Inner != orig.Head[i].Inner {
			t.Errorf("head[%d] = %+v, want %+v", i, got.Head[i], orig.Head[i])
		}
	}
	if got.Body == nil || got.Body.Inner != orig.Body.Inner {
		t.Fatalf("body inner mismatch: %+v", got.Body)
	}
	if len(got.Body.Attrs) != 2 || got.Body.Attrs[1].Value != `init("x")` {
		t.Fatalf("body attrs: %+v", got.Body.Attrs)
	}
	if len(got.UserActions) != 1 || got.UserActions[0].Kind != ActionMouseMove {
		t.Fatalf("user actions: %+v", got.UserActions)
	}
}

func TestMarshalFramesetPage(t *testing.T) {
	c := &NewContent{
		DocTime:     5,
		HasDocument: true,
		Head:        []HeadChild{{Tag: "title", Inner: "frames"}},
		FrameSet:    &TopElement{Attrs: []dom.Attr{{Name: "cols", Value: "50%,50%"}}, Inner: `<frame src="http://a/f1">`},
		NoFrames:    &TopElement{Inner: "sorry"},
	}
	got, err := Unmarshal(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != nil {
		t.Error("frameset page must have no body")
	}
	if got.FrameSet == nil || got.NoFrames == nil {
		t.Fatal("frameset/noframes lost")
	}
	if got.FrameSet.Attrs[0].Value != "50%,50%" {
		t.Errorf("frameset attrs: %+v", got.FrameSet.Attrs)
	}
}

func TestActionOnlyMessage(t *testing.T) {
	c := &NewContent{DocTime: 9, UserActions: []Action{{Kind: ActionScroll, Value: "120"}}}
	out := c.Marshal()
	if strings.Contains(string(out), "<docContent>") {
		t.Fatal("action-only message must not carry docContent")
	}
	got, err := Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasDocument {
		t.Error("HasDocument must be false")
	}
	if len(got.UserActions) != 1 || got.UserActions[0].Value != "120" {
		t.Errorf("actions: %+v", got.UserActions)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not xml", "<newContent></newContent>", "<docTime>abc</docTime>"} {
		if _, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("Unmarshal(%q) succeeded, want error", in)
		}
	}
}

func TestRoundTripPropertyRandomDocuments(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := &NewContent{DocTime: r.Int63(), HasDocument: true}
		nHead := r.Intn(4)
		for i := 0; i < nHead; i++ {
			c.Head = append(c.Head, HeadChild{
				Tag:   []string{"title", "style", "script", "meta"}[r.Intn(4)],
				Attrs: []dom.Attr{{Name: "data-x", Value: randASCII(r)}},
				Inner: randASCII(r),
			})
		}
		c.Body = &TopElement{
			Attrs: []dom.Attr{{Name: "class", Value: randASCII(r)}},
			Inner: `<p attr="` + randASCII(r) + `">` + randASCII(r) + `</p>`,
		}
		got, err := Unmarshal(c.Marshal())
		if err != nil {
			return false
		}
		if got.DocTime != c.DocTime || len(got.Head) != len(c.Head) {
			return false
		}
		for i := range c.Head {
			if got.Head[i].Tag != c.Head[i].Tag || got.Head[i].Inner != c.Head[i].Inner {
				return false
			}
		}
		return got.Body != nil && got.Body.Inner == c.Body.Inner &&
			got.Body.Attrs[0].Value == c.Body.Attrs[0].Value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randASCII(r *rand.Rand) string {
	n := r.Intn(30)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(32 + r.Intn(95)) // printable ASCII incl. <>&"]]
	}
	return string(b)
}

func TestContentFromDocument(t *testing.T) {
	doc := dom.Parse(`<html><head><title>T</title><meta charset="utf-8"></head>` +
		`<body class="c"><div>hello</div></body></html>`)
	c := ContentFromDocument(doc.Root, 77)
	if c.DocTime != 77 || !c.HasDocument {
		t.Fatal("header wrong")
	}
	if len(c.Head) != 2 || c.Head[0].Tag != "title" || c.Head[0].Inner != "T" {
		t.Fatalf("head = %+v", c.Head)
	}
	if c.Body == nil || c.Body.Inner != "<div>hello</div>" {
		t.Fatalf("body = %+v", c.Body)
	}
	if c.Body.Attrs[0] != (dom.Attr{Name: "class", Value: "c"}) {
		t.Fatalf("body attrs = %+v", c.Body.Attrs)
	}
	if c.FrameSet != nil {
		t.Error("unexpected frameset")
	}
}

func TestEncodeDecodeActions(t *testing.T) {
	in := []Action{
		{Kind: ActionClick, Target: "1.2.3", From: "p1", CID: "c1", CSeq: 7},
		{Kind: ActionFormSubmit, Target: "1.4", Fields: []httpwire.FormField{{Name: "q", Value: "x&y=z"}}, From: "p2"},
	}
	out, err := DecodeActions(EncodeActions(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Target != "1.2.3" || out[0].CSeq != 7 {
		t.Fatalf("round trip: %+v", out)
	}
	if _, err := DecodeActions("{broken"); err == nil {
		t.Error("garbage must not decode")
	}
	if got, err := DecodeActions(""); err != nil || got != nil {
		t.Error("empty payload must decode to nil")
	}
}
