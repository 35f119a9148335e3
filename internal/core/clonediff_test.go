package core

import (
	"bytes"
	"math/rand"
	"testing"

	"rcb/internal/dom"
	"rcb/internal/sites"
)

// reparsed returns a copy of a build without its clone regions, so its
// participantTree takes the payload re-parse path.
func reparsed(p *PreparedContent) *PreparedContent {
	return &PreparedContent{version: p.version, docTime: p.docTime, content: p.content}
}

// randomHostEdit applies one DOM-API edit to the host's top-level region,
// including the shapes a re-parse normalizes away (split and empty text
// runs) and ones it cannot reproduce at all ('<' in text, an uppercase
// tag, a <p> inside a <p>).
func randomHostEdit(r *rand.Rand, doc *dom.Document) {
	region := doc.Body()
	if region == nil {
		region = doc.Root.FirstChildElement("frameset")
	}
	var nodes []*dom.Node
	region.Walk(func(n *dom.Node) bool { nodes = append(nodes, n); return true })
	n := nodes[r.Intn(len(nodes))]
	container := n.Type == dom.ElementNode && !dom.IsVoid(n.Tag) && !dom.IsRawText(n.Tag)
	insert := func(c *dom.Node) {
		if len(n.Children) == 0 {
			n.AppendChild(c)
		} else {
			n.InsertBefore(c, n.Children[r.Intn(len(n.Children))])
		}
	}
	switch op := r.Intn(20); {
	case op < 4 && n.Type == dom.ElementNode:
		n.SetAttr([]string{"class", "data-x", "title", "id"}[r.Intn(4)], []string{"a", "b c", "x&y", `q"`}[r.Intn(4)])
	case op < 7 && n.Type == dom.TextNode:
		n.Data = []string{"", "edited", "more text", " "}[r.Intn(4)]
	case op < 9 && n.Type == dom.TextNode && len(n.Data) > 1:
		k := r.Intn(len(n.Data))
		tail := dom.NewText(n.Data[k:])
		n.Data = n.Data[:k]
		for i, c := range n.Parent.Children {
			if c == n {
				if i+1 < len(n.Parent.Children) {
					n.Parent.InsertBefore(tail, n.Parent.Children[i+1])
				} else {
					n.Parent.AppendChild(tail)
				}
				break
			}
		}
	case op < 11 && container:
		insert(dom.NewText(""))
	case op < 13 && n != region && n.Parent != nil:
		n.Parent.RemoveChild(n)
	case op < 16 && container:
		el := dom.NewElement([]string{"div", "span", "li", "b"}[r.Intn(4)])
		el.AppendChild(dom.NewText("new"))
		insert(el)
	case op == 16 && container:
		insert(dom.NewText("a<b")) // unsafe: the tokenizer splits it
	case op == 17 && container:
		insert(&dom.Node{Type: dom.ElementNode, Tag: "SPAN"}) // unsafe: read back lowercase
	case op == 18 && container:
		p := dom.NewElement("p")
		p.AppendChild(dom.NewElement("p")) // unsafe: the inner <p> closes the outer
		insert(p)
	case container:
		insert(dom.NewComment("note"))
	}
}

// TestCloneDeltaMatchesReparse is the byte-identity guard for the clone
// diff: over every corpus site in both modes and a run of random DOM-API
// edits, the delta built from the canonicalized clone regions equals the
// delta built by re-parsing the payloads, byte for byte (or both fall back
// to the snapshot). Both participantTree paths must actually be taken.
func TestCloneDeltaMatchesReparse(t *testing.T) {
	edits := 12
	if testing.Short() {
		edits = 4
	}
	canonical, fallback := 0, 0
	for si, spec := range sites.Table1 {
		for _, cacheMode := range []bool{false, true} {
			w := newWorld(t, nil)
			w.hostNavigate(t, "http://"+spec.Host()+"/")
			r := rand.New(rand.NewSource(int64(si)*2 + 1))
			prev, err := w.agent.BuildContent(cacheMode)
			if err != nil {
				t.Fatal(err)
			}
			prevRef := reparsed(prev)
			for e := 0; e < edits; e++ {
				if err := w.host.ApplyMutation(func(doc *dom.Document) error {
					for k := r.Intn(3) + 1; k > 0; k-- {
						randomHostEdit(r, doc)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				cur, err := w.agent.BuildContent(cacheMode)
				if err != nil {
					t.Fatal(err)
				}
				curRef := reparsed(cur)
				regions := cur.regions
				got, want := w.agent.pipeline.buildDelta(prev, cur), w.agent.pipeline.buildDelta(prevRef, curRef)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s cache=%v edit %d: clone delta nil=%v, re-parse delta nil=%v", spec.Name, cacheMode, e, got == nil, want == nil)
				}
				if got != nil && !bytes.Equal(got.xml, want.xml) {
					t.Fatalf("%s cache=%v edit %d: clone delta differs from the re-parse delta\n got %s\nwant %s", spec.Name, cacheMode, e, got.xml, want.xml)
				}
				for i, el := range regions {
					if el == nil {
						continue
					}
					if cur.participantTree().FirstChildElement(deltaRegionTags[i]) == el {
						canonical++
					} else {
						fallback++
					}
				}
				prev, prevRef = cur, curRef
			}
		}
	}
	if canonical == 0 || fallback == 0 {
		t.Fatalf("participantTree paths: %d canonicalized regions, %d re-parsed; want both exercised", canonical, fallback)
	}
	t.Logf("%d canonicalized regions, %d re-parsed", canonical, fallback)
}
