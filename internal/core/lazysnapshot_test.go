package core

// Tests for the lazily marshaled Figure 4 snapshot: a build is marshaled at
// most once, only when something needs the full message, and every byte on
// the wire is what the eager agent — extraction and marshal in one step,
// each payload packed into one string before escape() — produced.

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/jsescape"
	"rcb/internal/sites"
)

// refPackHead and refPackTop are the eager agent's payload packing: the
// parts joined into one string, then escape()d as a whole.
func refPackHead(h HeadChild) string {
	return h.Tag + "\n" + string(appendAttrForm(nil, h.Attrs)) + "\n" + h.Inner
}

func refPackTop(t *TopElement) string {
	return string(appendAttrForm(nil, t.Attrs)) + "\n" + t.Inner
}

func refAppendHead(dst []byte, head []HeadChild) []byte {
	dst = append(dst, "<docHead>\n"...)
	for i, h := range head {
		n := strconv.Itoa(i + 1)
		dst = append(dst, "<hChild"+n+"><![CDATA["+jsescape.Escape(refPackHead(h))+"]]></hChild"+n+">\n"...)
	}
	return append(dst, "</docHead>\n"...)
}

func refAppendCDATA(dst []byte, name, payload string) []byte {
	return append(dst, "<"+name+"><![CDATA["+jsescape.Escape(payload)+"]]></"+name+">\n"...)
}

// refMarshal renders a Figure 4 message with the eager agent's packing.
func refMarshal(c *NewContent) []byte {
	dst := []byte("<?xml version='1.0' encoding='utf-8'?>\n<newContent>\n<docTime>" + strconv.FormatInt(c.DocTime, 10) + "</docTime>\n")
	if c.HasDocument {
		dst = append(dst, "<docContent>\n"...)
		dst = refAppendHead(dst, c.Head)
		for _, r := range []struct {
			name string
			t    *TopElement
		}{{"docBody", c.Body}, {"docFrameSet", c.FrameSet}, {"docNoFrames", c.NoFrames}} {
			if r.t != nil {
				dst = refAppendCDATA(dst, r.name, refPackTop(r.t))
			}
		}
		dst = append(dst, "</docContent>\n"...)
	}
	if len(c.UserActions) > 0 {
		dst = refAppendCDATA(dst, "userActions", EncodeActions(c.UserActions))
	}
	return append(dst, closeNewContent...)
}

// refDeltaXML is the eager agent's delta for prev → cur: the same diff of
// participant trees, encoded with the eager packing (the patch script
// rendered to a string first), or nil where it fell back to the snapshot.
func refDeltaXML(prev, cur *PreparedContent) []byte {
	dst := []byte(deltaPreamble + "<docTime>" + strconv.FormatInt(cur.docTime, 10) +
		"</docTime>\n<baseDocTime>" + strconv.FormatInt(prev.docTime, 10) + "</baseDocTime>\n")
	if !headChildrenEqual(prev.content.Head, cur.content.Head) {
		dst = refAppendHead(dst, cur.content.Head)
	}
	if (prev.content.Body == nil) != (cur.content.Body == nil) ||
		(prev.content.FrameSet == nil) != (cur.content.FrameSet == nil) ||
		(prev.content.NoFrames == nil) != (cur.content.NoFrames == nil) {
		return nil
	}
	pt, ct := prev.participantTree(), cur.participantTree()
	for i, tag := range deltaRegionTags {
		po, co := pt.FirstChildElement(tag), ct.FirstChildElement(tag)
		if po == nil || co == nil {
			continue
		}
		if patches := dom.Diff(po, co); len(patches) > 0 {
			name := [...]string{"bodyPatch", "framesetPatch", "noframesPatch"}[i]
			dst = refAppendCDATA(dst, name, string(appendPatches(nil, patches)))
		}
	}
	dst = append(dst, closeDeltaContent...)
	if len(dst) >= len(refMarshal(cur.content)) {
		return nil
	}
	return dst
}

// modeBuilds returns the current build and the delta-base ring of one mode.
func (a *Agent) modeBuilds(cacheMode bool) (cur *PreparedContent, ring []*PreparedContent) {
	a.pipeline.mu.Lock()
	defer a.pipeline.mu.Unlock()
	m := a.pipeline.mode(cacheMode)
	for _, b := range m.ring {
		ring = append(ring, b.prep)
	}
	return m.prepared, ring
}

// cachedPair is one finished delta a ring caches: its target docTime and
// script (nil for a "not worth it" verdict).
type cachedPair struct {
	target int64
	d      *preparedDelta
}

// cachedDelta returns the delta one mode's ring caches for base, once its
// diff has finished, or nil when none is cached.
func (a *Agent) cachedDelta(cacheMode bool, base int64) *cachedPair {
	f := ringDelta(a.pipeline, cacheMode, base)
	if f == nil {
		return nil
	}
	d, _ := f.wait()
	return &cachedPair{target: f.key, d: d}
}

// TestLazySnapshotMatchesEagerMarshal: the lazily marshaled XML of a build
// is byte-identical to an eager Marshal of the same extraction and to the
// eager agent's packing, across the corpus in both modes; GenTime forces
// the marshal and covers it.
func TestLazySnapshotMatchesEagerMarshal(t *testing.T) {
	for _, spec := range sites.Table1 {
		for _, cacheMode := range []bool{false, true} {
			w := newWorld(t, nil)
			w.hostNavigate(t, "http://"+spec.Host()+"/")
			prep, err := w.agent.BuildContent(cacheMode)
			if err != nil {
				t.Fatal(err)
			}
			if n := prep.marshals.Load(); n != 0 {
				t.Fatalf("%s: BuildContent marshaled the snapshot (%d)", spec.Name, n)
			}
			gen := prep.GenTime()
			if n := prep.marshals.Load(); n != 1 {
				t.Fatalf("%s: GenTime ran %d marshals, want 1", spec.Name, n)
			}
			if gen < prep.extractTime || gen != prep.extractTime+prep.marshalTime {
				t.Fatalf("%s: GenTime %v does not cover extraction %v plus marshal %v", spec.Name, gen, prep.extractTime, prep.marshalTime)
			}
			xml := prep.XML()
			if eager := prep.content.Marshal(); !bytes.Equal(xml, eager) {
				t.Fatalf("%s cache=%v: lazy XML differs from an eager Marshal of the same build", spec.Name, cacheMode)
			}
			if ref := refMarshal(prep.content); !bytes.Equal(xml, ref) {
				t.Fatalf("%s cache=%v: XML differs from the eager agent's packing", spec.Name, cacheMode)
			}
			if n := prep.marshals.Load(); n != 1 {
				t.Fatalf("%s: %d marshals after XML, want 1", spec.Name, n)
			}
		}
	}
}

// TestPayloadPackingMatchesJoinedEscape: escaping a payload part by part is
// the escape of the joined string even where a part ends or starts inside
// an invalid or truncated UTF-8 sequence.
func TestPayloadPackingMatchesJoinedEscape(t *testing.T) {
	nc := &NewContent{
		DocTime:     7,
		HasDocument: true,
		Head: []HeadChild{
			{Tag: "ti\xe4\xb8", Attrs: []dom.Attr{{Name: "n\xff", Value: "v €"}}, Inner: "\xb8x\U0001F600"},
			{Tag: "", Inner: ""},
			{Tag: "\xf0\x9d\x84", Inner: "\x9e%uD834"},
		},
		Body:        &TopElement{Attrs: []dom.Attr{{Name: "a", Value: "\x00"}}, Inner: "\xed\xa0\x80\xc0\x80 <p>"},
		NoFrames:    &TopElement{Inner: "\xf4\x90\x80\x80"},
		UserActions: []Action{{Kind: ActionScroll, Y: 3, From: "pé"}},
	}
	if got, want := nc.Marshal(), refMarshal(nc); !bytes.Equal(got, want) {
		t.Fatalf("Marshal differs from the joined-payload packing:\n got: %q\nwant: %q", got, want)
	}
}

// TestDeltaFleetNeverMarshals: a fleet that only ever takes deltas — 16
// long-poll readers and one duplex channel, over several host edits — never
// makes the agent marshal a snapshot past the one the joins needed, and the
// deltas it serves are the eager agent's bytes.
func TestDeltaFleetNeverMarshals(t *testing.T) {
	const readers, edits = 16, 3
	spec, _ := sites.SiteByName("msn.com")
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	fleet := make([]*Snippet, readers)
	for i := range fleet {
		fleet[i] = longPollJoin(t, w, "reader"+strconv.Itoa(i)+".lan", 5*time.Second)
	}
	ch, _, _ := duplexJoin(t, w, "duplex.lan")
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })
	waitUntil(t, "initial push", func() bool { return ch.DocTime() > 0 })
	joined, _ := w.agent.modeBuilds(false)

	for e := 1; e <= edits; e++ {
		var wg sync.WaitGroup
		for i, s := range fleet {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if updated, err := s.PollOnce(); err != nil || !updated {
					t.Errorf("edit %d reader %d: updated=%v err=%v", e, i, updated, err)
				}
			}()
		}
		waitParked(t, w.agent, readers)
		prev, _ := w.agent.modeBuilds(false)
		hostEdit(t, w, e)
		wg.Wait()
		cur, _ := w.agent.modeBuilds(false)
		if cur == prev {
			t.Fatalf("edit %d: no new build", e)
		}
		waitUntil(t, "channel delta "+strconv.Itoa(e), func() bool { return ch.DocTime() == cur.docTime })
		for i, s := range fleet {
			if s.DocTime() != cur.docTime {
				t.Fatalf("edit %d: reader %d at docTime %d, want %d", e, i, s.DocTime(), cur.docTime)
			}
		}
		entry := w.agent.cachedDelta(false, prev.docTime)
		if entry == nil || entry.d == nil || entry.target != cur.docTime {
			t.Fatalf("edit %d: no served delta cached for %d → %d", e, prev.docTime, cur.docTime)
		}
		if want := refDeltaXML(prev, cur); !bytes.Equal(entry.d.xml, want) {
			t.Fatalf("edit %d: served delta differs from the eager agent's:\n got: %q\nwant: %q", e, entry.d.xml, want)
		}
	}
	if t.Failed() {
		return
	}

	cur, ring := w.agent.modeBuilds(false)
	for _, b := range append(ring, cur) {
		want := int32(0)
		if b == joined {
			want = 1 // the joins' ts=0 snapshot
		}
		if n := b.marshals.Load(); n != want {
			t.Errorf("build %d marshaled %d times, want %d", b.docTime, n, want)
		}
	}
	if got := w.agent.DeltasServed(); got < edits*(readers+1) {
		t.Errorf("DeltasServed = %d, want at least %d", got, edits*(readers+1))
	}
	want := hostBodyHTML(t, w, false)
	for i, s := range append(fleet, ch) {
		if got := participantBodyHTML(t, s); got != want {
			t.Errorf("participant %d diverged from the host", i)
		}
	}
}

// settleJoinWarm waits until no join's snapshot warm (warmSnapshot) is
// running, so build and marshal counts taken next see only the polls a
// test makes. The flag is set before GET / returns, so a clear flag after
// the joins means every warm they started has finished.
func settleJoinWarm(t *testing.T, a *Agent) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for a.warming.Load() {
		if time.Now().After(deadline) {
			t.Fatal("a join's snapshot warm did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentJoinersShareOneMarshal: 16 first polls (ts=0) racing on a
// new version cost one build and one marshal, and all of them are answered
// with the very same bytes.
func TestConcurrentJoinersShareOneMarshal(t *testing.T) {
	const joiners = 16
	spec, _ := sites.SiteByName("msn.com")
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	reqs := make([]*httpwire.Request, joiners)
	for i := range reqs {
		join := w.agent.ServeWire(httpwire.NewRequest("GET", "/"))
		pid, _, _ := strings.Cut(strings.TrimPrefix(join.Header.Get("Set-Cookie"), "rcbpid="), ";")
		if pid == "" {
			t.Fatalf("join %d: no pid", i)
		}
		req := httpwire.NewRequest("POST", "/poll")
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Cookie", "rcbpid="+pid)
		req.Body = []byte("ts=0&delta=1")
		reqs[i] = req
	}
	settleJoinWarm(t, w.agent)
	hostEdit(t, w, 1)
	builds0 := w.agent.ContentBuilds()

	bodies := make([][]byte, joiners)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp := w.agent.ServeWire(req)
			if resp.StatusCode != 200 {
				t.Errorf("joiner %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = resp.Body
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Fatalf("%d joiners ran %d builds, want 1", joiners, got)
	}
	prep, _ := w.agent.modeBuilds(false)
	if n := prep.marshals.Load(); n != 1 {
		t.Fatalf("%d joiners ran %d marshals, want 1", joiners, n)
	}
	xml := prep.XML()
	for i, body := range bodies {
		if len(body) == 0 || &body[0] != &xml[0] || len(body) != len(xml) {
			t.Fatalf("joiner %d was not answered with the shared snapshot", i)
		}
	}
}

// TestDeltaVerdictLowerBound pins the lower-bound shortcut to the eager
// verdicts: a small edit takes the delta without marshaling the snapshot; a
// whole-body rewrite whose delta outgrows the raw payloads forces the
// marshal and is still served when smaller; and a delta not smaller than
// the snapshot still falls back to it.
func TestDeltaVerdictLowerBound(t *testing.T) {
	spec, _ := sites.SiteByName("msn.com")
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	next := func(edit func(body *dom.Node)) (prev, cur *PreparedContent, d *preparedDelta) {
		t.Helper()
		prev, err := w.agent.BuildContent(false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.host.ApplyMutation(func(doc *dom.Document) error {
			edit(doc.Body())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if cur, err = w.agent.BuildContent(false); err != nil {
			t.Fatal(err)
		}
		d = w.agent.pipeline.buildDelta(prev, cur)
		want := refDeltaXML(prev, cur)
		if (d == nil) != (want == nil) {
			t.Fatalf("delta verdict %v, eager verdict %v", d != nil, want != nil)
		}
		if d != nil && !bytes.Equal(d.xml, want) {
			t.Fatal("delta bytes differ from the eager agent's")
		}
		return prev, cur, d
	}

	_, cur, d := next(func(body *dom.Node) { body.SetAttr("data-tick", "1") })
	if d == nil || len(d.xml) >= cur.content.payloadLen() {
		t.Fatal("small edit: want a delta shorter than the raw payloads")
	}
	if n := cur.marshals.Load(); n != 0 {
		t.Fatalf("small edit marshaled the snapshot %d times, want 0", n)
	}

	// Whole-body rewrites: every body child replaced by rows of markup
	// dense in characters escape() expands. From 50 rows to 100 the delta
	// is longer than the raw payloads yet shorter than the escaped snapshot.
	rows := func(n int) func(body *dom.Node) {
		return func(body *dom.Node) {
			body.RemoveAllChildren()
			for i := 0; i < n; i++ {
				el := dom.NewElement("p")
				el.SetAttr("class", "r"+strconv.Itoa(i))
				el.AppendChild(dom.NewText("<rewritten> & \"quoted\" ; row " + strconv.Itoa(i)))
				body.AppendChild(el)
			}
		}
	}
	next(rows(50))
	_, cur, d = next(rows(100))
	if d == nil || len(d.xml) < cur.content.payloadLen() {
		t.Fatalf("rewrite: want a served delta at least as long as the raw payloads (delta %v)", d != nil)
	}
	if n := cur.marshals.Load(); n != 1 {
		t.Fatalf("rewrite: %d marshals to settle the verdict, want 1", n)
	}

	// Collapse a 1000-row body to almost nothing: the removes outweigh the
	// tiny snapshot.
	next(rows(1000))
	_, cur, d = next(func(body *dom.Node) {
		body.RemoveAllChildren()
		body.AppendChild(dom.NewText("tiny"))
	})
	if d != nil {
		t.Fatal("collapse: an oversized delta was served")
	}
	if n := cur.marshals.Load(); n != 1 {
		t.Fatalf("collapse: %d marshals, want 1", n)
	}
}

// TestJoinWarmsSnapshot: an admitted GET / starts the version's build and
// snapshot marshal before any poll, and the joiner's first poll is answered
// from that very snapshot with no further build or marshal. A refused join
// warms nothing.
func TestJoinWarmsSnapshot(t *testing.T) {
	spec, _ := sites.SiteByName("msn.com")
	w := newWorld(t, func(a *Agent) { a.MaxParticipants = 1 })
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	builds0 := w.agent.ContentBuilds()

	join := w.agent.ServeWire(httpwire.NewRequest("GET", "/"))
	pid, _, _ := strings.Cut(strings.TrimPrefix(join.Header.Get("Set-Cookie"), "rcbpid="), ";")
	if join.StatusCode != 200 || pid == "" {
		t.Fatalf("join: status %d, pid %q", join.StatusCode, pid)
	}
	settleJoinWarm(t, w.agent)
	prep, _ := w.agent.modeBuilds(false)
	if prep == nil || prep.marshals.Load() != 1 {
		t.Fatal("GET / did not warm the snapshot")
	}
	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Fatalf("the warm ran %d builds, want 1", got)
	}

	req := httpwire.NewRequest("POST", "/poll")
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Cookie", "rcbpid="+pid)
	req.Body = []byte("ts=0")
	resp := w.agent.ServeWire(req)
	xml := prep.XML()
	if resp.StatusCode != 200 || len(resp.Body) != len(xml) || &resp.Body[0] != &xml[0] {
		t.Fatal("the first poll was not answered with the warmed snapshot")
	}
	if got := w.agent.ContentBuilds() - builds0; got != 1 || prep.marshals.Load() != 1 {
		t.Fatalf("first poll after the warm: %d builds, %d marshals, want 1 and 1", got, prep.marshals.Load())
	}

	hostEdit(t, w, 1)
	if refused := w.agent.ServeWire(httpwire.NewRequest("GET", "/")); refused.StatusCode == 200 {
		t.Fatal("a join past MaxParticipants was admitted")
	}
	settleJoinWarm(t, w.agent)
	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Fatalf("a refused join warmed: %d builds, want 1", got)
	}
}
