package core

// Tests for the incremental deltaContent path: codec round trips, the
// fallback rules (first poll, base mismatch, oversized delta, region
// change), snippet-side resync after a poisoned delta, convergence over the
// site corpus, and — under -race — the single-flight guard for concurrent
// polls spanning mixed base versions.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rcb/internal/dom"
	"rcb/internal/sites"
)

// hostEdit applies a small canonical mutation to the host page: one body
// attribute plus one status text — the "small edit" workload of the delta
// benchmarks.
func hostEdit(t *testing.T, w *world, tick int) {
	t.Helper()
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-tick", fmt.Sprint(tick))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// hostBodyHTML returns what the host's current body serializes to through
// the generation pipeline — the ground truth participants must converge on.
func hostBodyHTML(t *testing.T, w *world, cacheMode bool) string {
	t.Helper()
	prep, err := w.agent.BuildContent(cacheMode)
	if err != nil {
		t.Fatal(err)
	}
	return prep.content.Body.Inner
}

func TestPatchCodecRoundTrip(t *testing.T) {
	old := dom.Parse(`<html><head><title>a</title></head><body class="x">` +
		`<div id="k">text &amp; more<b>bold</b></div><ul><li>1</li><li>2</li></ul></body></html>`)
	new := dom.Parse(`<html><head><title>b</title></head><body class="y">` +
		`<ul><li>1</li><li>3</li><li>4</li></ul><div id="k">changed<i>it's "quoted"</i></div><script>if(a<b){}</script></body></html>`)
	patches := dom.Diff(old.Root, new.Root)
	if len(patches) == 0 {
		t.Fatal("no patches to encode")
	}
	enc := string(appendPatches(nil, patches))
	decoded, err := decodePatches(enc)
	if err != nil {
		t.Fatalf("decode: %v\nencoded: %q", err, enc)
	}
	if err := dom.Apply(old.Root, decoded); err != nil {
		t.Fatalf("apply decoded: %v", err)
	}
	if got, want := dom.OuterHTML(old.Root), dom.OuterHTML(new.Root); got != want {
		t.Fatalf("decoded script diverged:\n got %s\nwant %s", got, want)
	}
}

func TestPatchCodecRejectsMalformed(t *testing.T) {
	good := string(appendPatches(nil, []dom.Patch{{Op: dom.OpSetText, Path: "0", Text: "hi"}}))
	cases := []string{
		"", "x", "1;", "1;T", "1;T1:0", "2;" + good[2:],
		good + "trailing", "1;Z1:0", "1;I1:0-5;t2:xx",
		"99999999999999999999;", "1;T3:ab",
	}
	for _, c := range cases {
		if _, err := decodePatches(c); err == nil {
			t.Errorf("decodePatches(%q) accepted malformed input", c)
		}
	}
	if _, err := decodePatches(good); err != nil {
		t.Fatalf("control case rejected: %v", err)
	}
}

func TestDeltaMessageRoundTrip(t *testing.T) {
	d := &DeltaContent{
		DocTime:     42,
		BaseDocTime: 41,
		HasHead:     true,
		Head:        []HeadChild{{Tag: "title", Inner: "new title"}},
		Body: []dom.Patch{
			{Op: dom.OpSetAttrs, Path: "", Attrs: []dom.Attr{{Name: "class", Value: "x&y\"z"}}},
			{Op: dom.OpSetText, Path: "0.1", Text: "multi\nline ünïcødé"},
			{Op: dom.OpInsert, Path: "0", Index: 2, Node: dom.Parse(`<div id="n">x</div>`).Root},
		},
		UserActions: []Action{{Kind: ActionMouseMove, X: 1, Y: 2, From: "p9"}},
	}
	raw := d.Marshal()
	if !MessageIsDelta(raw) {
		t.Fatal("marshaled delta not sniffed as delta")
	}
	if MessageIsDelta([]byte("<?xml version='1.0' encoding='utf-8'?>\n<newContent>\n")) {
		t.Fatal("newContent sniffed as delta")
	}
	got, err := UnmarshalDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.DocTime != 42 || got.BaseDocTime != 41 || !got.HasHead {
		t.Fatalf("header fields = %+v", got)
	}
	if len(got.Head) != 1 || got.Head[0].Inner != "new title" {
		t.Fatalf("head = %+v", got.Head)
	}
	if len(got.Body) != 3 || got.Body[1].Text != "multi\nline ünïcødé" {
		t.Fatalf("body patches = %+v", got.Body)
	}
	if len(got.UserActions) != 1 || got.UserActions[0].From != "p9" {
		t.Fatalf("actions = %+v", got.UserActions)
	}
	if len(got.FrameSet) != 0 || len(got.NoFrames) != 0 {
		t.Fatalf("phantom region patches: %+v", got)
	}
}

// TestDeltaSmallEditServesPatch is the core happy path: after a first full
// sync, a small host edit reaches the participant as a deltaContent message
// that is far smaller than the snapshot, and the applied document matches
// the host's generated content exactly.
func TestDeltaSmallEditServesPatch(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("first poll: updated=%v err=%v", updated, err)
	}
	if got := w.agent.DeltasServed(); got != 0 {
		t.Fatalf("first poll served a delta (%d); it has no base", got)
	}

	hostEdit(t, w, 1)
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("delta poll: updated=%v err=%v", updated, err)
	}
	if got := w.agent.DeltasServed(); got != 1 {
		t.Fatalf("DeltasServed = %d, want 1", got)
	}
	st := alice.Stats()
	if st.DeltaPolls != 1 || st.DeltaFailures != 0 {
		t.Fatalf("snippet stats = %+v", st)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatalf("participant diverged after delta:\n got %s\nwant %s", got, want)
	}
	// A second small edit rides a second delta: the base rotated correctly.
	hostEdit(t, w, 2)
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("second delta poll: updated=%v err=%v", updated, err)
	}
	if got := alice.Stats().DeltaPolls; got != 2 {
		t.Fatalf("DeltaPolls = %d, want 2", got)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatal("participant diverged after second delta")
	}
}

// TestDeltaWireBytesAreSmall pins the point of the protocol: the delta for
// a one-attribute edit must be a small fraction of the full snapshot.
func TestDeltaWireBytesAreSmall(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	hostEdit(t, w, 1)

	prep, err := w.agent.pipeline.forMode(false)
	if err != nil {
		t.Fatal(err)
	}
	d := w.agent.pipeline.delta(false, alice.DocTime(), prep)
	if d == nil {
		t.Fatal("no delta for a small edit")
	}
	if len(d.xml)*4 > len(prep.XML()) {
		t.Fatalf("delta %dB vs full %dB; expected ≤ 25%%", len(d.xml), len(prep.XML()))
	}
}

// TestDeltaBaseMismatchFallsBackToFull: a participant whose base has fallen
// off the delta-base ring (more than ring-depth builds behind) must get the
// full snapshot.
func TestDeltaBaseMismatchFallsBackToFull(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()

	// One more edit than the ring retains, with only bob2 keeping up.
	for i := 1; i <= DefaultDeltaRingDepth+1; i++ {
		hostEdit(t, w, i)
		if _, err := bob2.PollOnce(); err != nil { // bob2 is delta-eligible each time
			t.Fatal(err)
		}
	}

	// alice's base is now beyond the ring: full snapshot, not a delta.
	served := w.agent.DeltasServed()
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("stale poll: updated=%v err=%v", updated, err)
	}
	if got := w.agent.DeltasServed(); got != served {
		t.Fatal("off-ring-base poll was served a delta")
	}
	if alice.Stats().DeltaPolls != 0 {
		t.Fatal("snippet recorded a delta poll")
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatal("stale participant did not converge on the snapshot")
	}
}

// TestDeltaRingServesOlderBases: a participant up to ring-depth builds
// behind is still served an incremental delta against its retained base —
// the multi-version ring's whole point — and converges byte-identically.
func TestDeltaRingServesOlderBases(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()

	// Ring-depth edits, with only bob2 keeping up: alice's base is now the
	// oldest build the ring still retains.
	for i := 1; i <= DefaultDeltaRingDepth; i++ {
		hostEdit(t, w, i)
		if _, err := bob2.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.agent.pipeline.basesRetained(); got != DefaultDeltaRingDepth {
		t.Fatalf("DeltaBasesRetained = %d, want %d", got, DefaultDeltaRingDepth)
	}

	served := w.agent.DeltasServed()
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("lagging poll: updated=%v err=%v", updated, err)
	}
	if got := w.agent.DeltasServed(); got != served+1 {
		t.Fatalf("DeltasServed advanced by %d, want 1 (ring base should serve a delta)", got-served)
	}
	if alice.Stats().DeltaPolls != 1 {
		t.Fatalf("snippet DeltaPolls = %d, want 1", alice.Stats().DeltaPolls)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatal("lagging participant diverged after ring delta")
	}
}

// TestDeltaOversizedFallsBackToFull: when the edit script would be bigger
// than the snapshot itself — here, a mass removal whose per-patch overhead
// dwarfs the tiny resulting page — the agent must serve the snapshot.
func TestDeltaOversizedFallsBackToFull(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	// Blow the body up to 1500 direct children (this poll is a normal,
	// efficient delta: one big insert run).
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		body := doc.Body()
		for i := 0; i < 1500; i++ {
			el := dom.NewElement("i")
			el.AppendChild(dom.NewText("x"))
			body.AppendChild(el)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("grow poll: updated=%v err=%v", updated, err)
	}

	// Now collapse the body to almost nothing: the script would be ~1500
	// removes — far more bytes than the tiny full snapshot.
	err = w.host.ApplyMutation(func(doc *dom.Document) error {
		body := doc.Body()
		body.RemoveAllChildren()
		body.AppendChild(dom.NewText(strings.Repeat("tiny", 3)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	diffs0, served0 := w.agent.DiffBuilds(), w.agent.DeltasServed()
	base := alice.DocTime()
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("collapse poll: updated=%v err=%v", updated, err)
	}
	if got := w.agent.DiffBuilds() - diffs0; got != 1 {
		t.Fatalf("DiffBuilds advanced by %d, want 1 (the oversized verdict is computed once)", got)
	}
	if got := w.agent.DeltasServed() - served0; got != 0 {
		t.Fatalf("oversized delta was served (%d)", got)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatal("participant did not converge on the snapshot")
	}
	// The oversized verdict is cached: another delta query for the same
	// (base, target) pair must return the recorded fallback, not re-diff.
	prep, err := w.agent.pipeline.forMode(false)
	if err != nil {
		t.Fatal(err)
	}
	if d := w.agent.pipeline.delta(false, base, prep); d != nil {
		t.Fatal("cached oversized verdict re-offered a delta")
	}
	if got := w.agent.DiffBuilds() - diffs0; got != 1 {
		t.Fatalf("DiffBuilds = %d after re-probe, want 1", got)
	}
}

// TestDeltaDisabledKnobs: the snippet-side switch forces the paper's
// full-snapshot protocol.
func TestDeltaDisabledKnobs(t *testing.T) {
	w2 := newWorld(t, nil)
	w2.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	carol := w2.join(t, "carol.lan")
	carol.DisableDelta = true
	carol.PollOnce()
	hostEdit(t, w2, 1)
	if updated, err := carol.PollOnce(); err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	if w2.agent.DeltasServed() != 0 || carol.Stats().DeltaPolls != 0 {
		t.Fatal("snippet-side DisableDelta did not stick")
	}
}

// TestDeltaRegionChangeFallsBack: a body→frameset transition cannot be
// patched (the region set changed), so the poll gets the full snapshot and
// the snippet's cleanup step handles the swap.
func TestDeltaRegionChangeFallsBack(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		body := doc.Body()
		doc.Root.RemoveChild(body)
		fs := dom.NewElement("frameset")
		fs.SetAttr("cols", "50%,50%")
		doc.Root.AppendChild(fs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("poll: updated=%v err=%v", updated, err)
	}
	if got := w.agent.DeltasServed(); got != 0 {
		t.Fatal("region transition was served as a delta")
	}
	err = alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Body() != nil {
			t.Error("participant still has a body after frameset transition")
		}
		if doc.FrameSet() == nil {
			t.Error("participant has no frameset")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaHeadChangeShipsFullHead: a head mutation rides the delta as the
// full head-children list and rebuilds the participant head, snippet
// element preserved.
func TestDeltaHeadChangeShipsFullHead(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		title := doc.Head().FirstChildElement("title")
		title.ReplaceChildren(dom.NewText("retitled by delta"))
		doc.Body().SetAttr("data-tick", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	if alice.Stats().DeltaPolls != 1 {
		t.Fatal("head change did not ride a delta")
	}
	err = alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		title := doc.Head().FirstChildElement("title")
		if title == nil || title.TextContent() != "retitled by delta" {
			t.Errorf("title = %v", title)
		}
		if doc.ByID("rcb-ajax-snippet") == nil {
			t.Error("snippet element lost during delta head rebuild")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPatchFailureResyncs: a delta whose script does not apply must
// flag the failure, reset the acknowledged timestamp, and let the next poll
// repair the participant with a full snapshot.
func TestDeltaPatchFailureResyncs(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	// Poison the participant's base behind the memo's back: the agent's
	// next delta addresses paths that no longer resolve.
	err := alice.Browser.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().RemoveAllChildren()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hostEdit(t, w, 1)
	updated, err := alice.PollOnce()
	if err == nil {
		// The small edit may only touch the body attribute list, which still
		// applies; force a structural edit to trip the path check.
		err = w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().Children[0].AppendChild(dom.NewText("structural"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		updated, err = alice.PollOnce()
	}
	if err == nil || updated {
		t.Fatalf("poisoned delta applied cleanly (updated=%v)", updated)
	}
	if got := alice.Stats().DeltaFailures; got == 0 {
		t.Fatal("delta failure not counted")
	}
	if got := alice.DocTime(); got != 0 {
		t.Fatalf("docTime = %d after failed delta, want 0 (resync)", got)
	}
	// The next poll repairs everything with a full snapshot.
	updated, err = alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("repair poll: updated=%v err=%v", updated, err)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatal("participant did not repair after failed delta")
	}
}

// TestDeltaConvergesAcrossCorpus drives multi-step delta sessions over a
// spread of real corpus pages: every small edit must arrive as a delta and
// leave the participant byte-identical to the host's generated content.
func TestDeltaConvergesAcrossCorpus(t *testing.T) {
	for _, spec := range []sites.SiteSpec{sites.Table1[0], sites.Table1[1], sites.Table1[7], sites.Table1[13], sites.Table1[19]} {
		t.Run(spec.Name, func(t *testing.T) {
			w := newWorld(t, nil)
			w.hostNavigate(t, "http://"+spec.Host()+"/")
			alice := w.join(t, "alice.lan")
			if updated, err := alice.PollOnce(); err != nil || !updated {
				t.Fatalf("first poll: updated=%v err=%v", updated, err)
			}
			for tick := 1; tick <= 3; tick++ {
				hostEdit(t, w, tick)
				updated, err := alice.PollOnce()
				if err != nil || !updated {
					t.Fatalf("tick %d: updated=%v err=%v", tick, updated, err)
				}
				if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
					t.Fatalf("tick %d diverged:\n got %s\nwant %s", tick, got, want)
				}
			}
			if got := alice.Stats().DeltaPolls; got != 3 {
				t.Fatalf("DeltaPolls = %d, want 3", got)
			}
			if got := alice.Stats().DeltaFailures; got != 0 {
				t.Fatalf("DeltaFailures = %d", got)
			}
		})
	}
}

// TestDeltaSurvivesUnnormalizedTextNodes guards the base-tree equivalence
// rule: DOM-API mutations can leave empty text nodes and adjacent text
// runs in the host's live document — shapes that serialization erases, so
// the participant's parsed copy indexes its children differently than the
// agent's clone. Deltas must be diffed against the participant-equivalent
// tree; otherwise a patch can fail paths (resync loop) or, worse, land on
// the wrong sibling and silently diverge the participant.
func TestDeltaSurvivesUnnormalizedTextNodes(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("first poll: updated=%v err=%v", updated, err)
	}

	// Mutation 1: plant the hostile shapes — an element whose only child is
	// an empty text node, two adjacent text nodes, and a marker element
	// after them whose index shifts if anything miscounts.
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		body := doc.Body()
		span := dom.NewElement("span")
		span.SetAttr("id", "empty-holder")
		span.AppendChild(dom.NewText(""))
		body.AppendChild(span)
		body.AppendChild(dom.NewText("a"))
		body.AppendChild(dom.NewText("b"))
		marker := dom.NewElement("u")
		marker.SetAttr("id", "marker")
		marker.AppendChild(dom.NewText("keep me"))
		body.AppendChild(marker)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("plant poll: updated=%v err=%v", updated, err)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatalf("diverged after planting:\n got %s\nwant %s", got, want)
	}

	// Mutation 2: edit right next to the unnormalized nodes — clear the
	// empty-holder's text sibling region and remove the marker. Patch paths
	// computed against the raw clone would shift by the erased nodes.
	err = w.host.ApplyMutation(func(doc *dom.Document) error {
		body := doc.Body()
		marker := doc.ByID("marker")
		if marker == nil {
			return fmt.Errorf("marker lost")
		}
		body.RemoveChild(marker)
		holder := doc.ByID("empty-holder")
		holder.ReplaceChildren(dom.NewText("now filled"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("edit poll: updated=%v err=%v", updated, err)
	}
	if got := alice.Stats().DeltaFailures; got != 0 {
		t.Fatalf("DeltaFailures = %d; unnormalized text nodes broke the delta path", got)
	}
	if got, want := participantBodyHTML(t, alice), hostBodyHTML(t, w, false); got != want {
		t.Fatalf("participant silently diverged:\n got %s\nwant %s", got, want)
	}
	if alice.Stats().DeltaPolls < 2 {
		t.Fatalf("edits did not ride deltas: %+v", alice.Stats())
	}
}

// TestConcurrentMixedBaseDeltaSingleFlight is the -race guard for the delta
// cache: half the participants acknowledge the newest replaced build, half
// the one before it — both retained in the delta-base ring — and all poll
// concurrently. Exactly one diff runs per distinct (base, target) pair, and
// every poll rides a delta against its own base.
func TestConcurrentMixedBaseDeltaSingleFlight(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 16
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = w.join(t, fmt.Sprintf("mix%d.lan", i))
		if _, err := snippets[i].PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh participants (ts of build 1). Advance half to build 2, leaving
	// the other half at build 1 — after the next edit both bases live in
	// the ring, at different depths.
	hostEdit(t, w, 1)
	for i := 0; i < n/2; i++ {
		if _, err := snippets[i].PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	hostEdit(t, w, 2)

	diffs0, served0 := w.agent.DiffBuilds(), w.agent.DeltasServed()
	deltaPolls0 := make([]int64, n)
	for i, s := range snippets {
		deltaPolls0[i] = s.Stats().DeltaPolls
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			updated, err := s.PollOnce()
			if err == nil && !updated {
				err = fmt.Errorf("poll %d carried no content", i)
			}
			errs[i] = err
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
	}
	if got := w.agent.DiffBuilds() - diffs0; got != 2 {
		t.Errorf("DiffBuilds advanced by %d for two distinct (base, target) pairs, want 2", got)
	}
	if got := w.agent.DeltasServed() - served0; got != int64(n) {
		t.Errorf("DeltasServed advanced by %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if got := snippets[i].Stats().DeltaPolls - deltaPolls0[i]; got != 1 {
			t.Errorf("snippet %d delta polls advanced by %d, want 1", i, got)
		}
	}
	want := hostBodyHTML(t, w, false)
	for i, s := range snippets {
		if participantBodyHTML(t, s) != want {
			t.Errorf("participant %d diverged", i)
		}
	}
}

// TestDeltaLongPollWake: a parked long-poll woken by a small host edit is
// served the delta, not the snapshot — the deltaOK flag survives parking.
func TestDeltaLongPollWake(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "alice.lan", 5e9)

	done := make(chan error, 1)
	go func() {
		updated, err := s.PollOnce()
		if err == nil && !updated {
			err = fmt.Errorf("woken poll carried no content")
		}
		done <- err
	}()
	waitParked(t, w.agent, 1)
	hostEdit(t, w, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DeltaPolls; got != 1 {
		t.Fatalf("woken long-poll DeltaPolls = %d, want 1", got)
	}
	if got, want := participantBodyHTML(t, s), hostBodyHTML(t, w, false); got != want {
		t.Fatal("woken participant diverged")
	}
}

// TestDeltaMirrorActionSplice: pending mirror actions splice into the
// shared delta bytes exactly as they do into the full snapshot.
func TestDeltaMirrorActionSplice(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()

	var mirrored []Action
	bob2.OnUserAction = func(a Action) { mirrored = append(mirrored, a) }

	alice.PointerMove(9, 9)
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	hostEdit(t, w, 1)
	updated, err := bob2.PollOnce()
	if err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	if bob2.Stats().DeltaPolls != 1 {
		t.Fatal("mirror-carrying response was not a delta")
	}
	if len(mirrored) != 1 || mirrored[0].Kind != ActionMouseMove {
		t.Fatalf("mirrored = %+v", mirrored)
	}
}
