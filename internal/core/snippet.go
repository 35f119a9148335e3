package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// Snippet is the participant-side Ajax-Snippet (paper §4.2): the protocol
// Client — join, polling loop, outbox, close reasons, relocation, backoff,
// every delivery mode — whose document is a participant browser model,
// installed per Figure 5. One Snippet serves one participant. Its protocol
// settings (AgentURL, PollInterval, Delivery, ...) and methods (Join,
// PollOnce, Run, Stats, ...) are the embedded Client's; the fields below
// and the action entry points are what a browser adds.
//
// # Delivery modes
//
// By default the snippet reproduces the paper exactly: Run sleeps
// PollInterval between polls and every request completes immediately
// (DeliveryInterval). Setting Delivery to DeliveryLongPoll turns the same
// request/response channel into a push path — see DeliveryMode. PollOnce
// honors the mode either way, so harnesses that drive polls manually get
// long-poll semantics just by setting the field.
type Snippet struct {
	wireClient

	// Browser is the participant browser model.
	Browser *browser.Browser
	// FetchObjects controls whether supplementary objects are downloaded
	// after a content update (on by default; the experiment harness turns
	// it off when it wants to time M6 in isolation).
	FetchObjects bool
	// OnUserAction, when non-nil, receives mirrored actions of other users
	// (pointer moves, etc.).
	OnUserAction func(Action)

	// lastObjects is guarded by the client's mu.
	lastObjects []browser.ObjectFetch
	// memoMu guards memo, not mu: an apply holds it across the browser's
	// mutation lock, and desync or Rejoin may reset the memo from another
	// goroutine meanwhile.
	memoMu sync.Mutex
	memo   ApplyMemo
}

// wireClient embeds the protocol Client in Snippet under an unexported
// name: its settings and methods are the snippet's own, and Snippet gains
// no exported field for it.
type wireClient = Client

// NewSnippet returns a snippet for a participant browser joining agentURL.
func NewSnippet(b *browser.Browser, agentURL, key string) *Snippet {
	s := &Snippet{Browser: b, FetchObjects: true}
	s.wireClient = Client{
		AgentURL:     agentURL,
		Key:          key,
		PollInterval: time.Second,
		http:         b.Client,
		doc:          s,
	}
	if key != "" {
		s.auth = NewAuthenticator(key)
	}
	// The snippet performs the Figure 5 render pass itself; the browser's
	// renderer must not race it with its own mutation-triggered fetches.
	b.FetchOnMutate = false
	return s
}

// LastObjectFetches reports the supplementary-object downloads of the most
// recent content application (experiment harness hook for M3/M4).
func (s *Snippet) LastObjectFetches() []browser.ObjectFetch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]browser.ObjectFetch(nil), s.lastObjects...)
}

// join loads the initial page containing Ajax-Snippet into the browser;
// the browser's cookie jar adopts the rcbpid identity.
func (s *Snippet) join(url string) (int, httpwire.Header, error) {
	if _, err := s.Browser.Navigate(url + "/"); err != nil {
		var se *browser.StatusError
		if errors.As(err, &se) {
			return se.StatusCode, se.Header, nil
		}
		return 0, nil, err
	}
	var hasSnippet bool
	err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		hasSnippet = doc.ByID("rcb-ajax-snippet") != nil
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	if !hasSnippet {
		return 0, nil, errors.New("initial page has no Ajax-Snippet")
	}
	return 200, nil, nil
}

func (s *Snippet) cookie(url string) string {
	return s.Browser.Jar.Header(browser.HostOf(url + "/"))
}

// apply mirrors the message's user actions, then installs its content:
// a full message through ApplyContent, a delta by running its patch
// scripts in place — no payload re-parse.
func (s *Snippet) apply(body []byte, m msgHeader) error {
	if m.delta {
		return s.applyDelta(body, m.hasDoc)
	}
	content, err := Unmarshal(body)
	if err != nil {
		return fmt.Errorf("bad response content: %w", err)
	}
	s.mirror(content.UserActions)
	if !m.hasDoc {
		return nil
	}
	return s.ApplyContent(content)
}

func (s *Snippet) applyDelta(body []byte, install bool) error {
	d, err := UnmarshalDelta(body)
	if err != nil {
		return fmt.Errorf("bad delta content: %w", err)
	}
	s.mirror(d.UserActions)
	if !install {
		return nil
	}
	start := time.Now()
	s.memoMu.Lock()
	err = s.Browser.ApplyMutation(func(doc *dom.Document) error {
		return s.memo.ApplyDelta(doc, d)
	})
	s.memoMu.Unlock()
	apply := time.Since(start)
	s.mu.Lock()
	if err != nil {
		s.stats.DeltaFailures++
	} else {
		s.stats.LastApplyTime = apply
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("apply delta: %w", err)
	}
	return s.fetchContentObjects()
}

func (s *Snippet) mirror(acts []Action) {
	if s.OnUserAction == nil {
		return
	}
	for _, act := range acts {
		s.OnUserAction(act)
	}
}

// reset forgets what the memo installed, so the next apply re-installs
// every region.
func (s *Snippet) reset() {
	s.memoMu.Lock()
	s.memo = ApplyMemo{}
	s.memoMu.Unlock()
}

// ClickElement dispatches a click action for the element with the given
// data-rcb path in the participant's current document — what the rewritten
// onclick handler does in a real browser. Like every action entry point it
// goes through QueueAction: sent at once on a live channel or as a
// pipelined action poll when it can be, piggybacked on the next poll
// otherwise.
func (s *Snippet) ClickElement(domID string) error {
	path, err := s.rcbPathOf(domID, "")
	if err != nil {
		return err
	}
	s.QueueAction(Action{Kind: ActionClick, Target: path})
	return nil
}

// SubmitFormByID dispatches a formsubmit action carrying the given fields
// for the form with the given DOM id — what the rewritten onsubmit handler
// does.
func (s *Snippet) SubmitFormByID(domID string, fields []httpwire.FormField) error {
	path, err := s.rcbPathOf(domID, "form")
	if err != nil {
		return err
	}
	s.QueueAction(Action{Kind: ActionFormSubmit, Target: path, Fields: fields})
	return nil
}

// InputField dispatches a forminput action for the field with the given DOM
// id.
func (s *Snippet) InputField(domID, value string) error {
	path, err := s.rcbPathOf(domID, "")
	if err != nil {
		return err
	}
	s.QueueAction(Action{Kind: ActionFormInput, Target: path, Value: value})
	return nil
}

// PointerMove dispatches a pointer-mirroring action.
func (s *Snippet) PointerMove(x, y int) {
	s.QueueAction(Action{Kind: ActionMouseMove, X: x, Y: y})
}

// rcbPathOf finds an element by DOM id and returns its data-rcb path.
func (s *Snippet) rcbPathOf(domID, wantTag string) (string, error) {
	var path string
	err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		el := doc.ByID(domID)
		if el == nil {
			return fmt.Errorf("rcb-snippet: no element with id %q", domID)
		}
		if wantTag != "" && el.Tag != wantTag {
			return fmt.Errorf("rcb-snippet: element %q is <%s>, want <%s>", domID, el.Tag, wantTag)
		}
		path = el.AttrOr(RCBAttr, "")
		if path == "" {
			return fmt.Errorf("rcb-snippet: element %q has no %s attribute (not rewritten?)", domID, RCBAttr)
		}
		return nil
	})
	return path, err
}

// ApplyContent installs new document content into the participant browser,
// following the four-step procedure of Figure 5:
//
//  1. clean up the head element, keeping only Ajax-Snippet itself;
//  2. set the head element children from the new content;
//  3. clean up top-level elements the new content obsoletes;
//  4. set the remaining top-level elements from the new content.
//
// Afterwards the participant browser downloads the supplementary objects
// referenced by the new content (unless FetchObjects is off).
func (s *Snippet) ApplyContent(content *NewContent) error {
	start := time.Now()
	s.memoMu.Lock()
	err := s.Browser.ApplyMutation(func(doc *dom.Document) error {
		return s.memo.Apply(doc, content)
	})
	s.memoMu.Unlock()
	apply := time.Since(start)
	if err != nil {
		return fmt.Errorf("rcb-snippet: apply content: %w", err)
	}
	s.mu.Lock()
	s.stats.LastApplyTime = apply
	s.mu.Unlock()
	return s.fetchContentObjects()
}

// fetchContentObjects downloads the supplementary objects the current
// document references — the post-apply step shared by the full and delta
// content paths. A no-op when FetchObjects is off.
func (s *Snippet) fetchContentObjects() error {
	if !s.FetchObjects {
		return nil
	}
	var fetches []browser.ObjectFetch
	err := s.Browser.WithDocument(func(pageURL string, doc *dom.Document) error {
		fetches = s.Browser.RenderObjects(doc, pageURL)
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	agentHost := browser.HostOf(s.agentURLLocked())
	s.lastObjects = fetches
	s.stats.ObjectFetches += int64(len(fetches))
	for _, f := range fetches {
		if browser.HostOf(f.URL) == agentHost {
			s.stats.ObjectsFromAgent++
		}
	}
	s.mu.Unlock()
	return nil
}

// ApplyContentToDocument is the pure DOM transformation of Figure 5,
// exported for direct testing and for the experiment harness's M6
// measurement. It always applies in full: a fresh memo has installed
// nothing, so it skips nothing. The snippet's own polling loop keeps one
// ApplyMemo across polls, which skips re-parsing unchanged payloads.
func ApplyContentToDocument(doc *dom.Document, content *NewContent) error {
	return new(ApplyMemo).Apply(doc, content)
}

// ApplyMemo remembers the payloads the last Apply installed into a
// document. The agent resends the full content on every change, so in a
// typical session most payloads are byte-identical between polls (only an
// attribute or one region changed); comparing the payload strings is a
// memcmp, while re-installing one means a full HTML re-parse. The memo is
// only valid while its document is mutated exclusively through it — the
// snippet's situation — and invalidates itself when the document changes
// identity (navigation).
type ApplyMemo struct {
	doc *dom.Document
	// headOK distinguishes "never applied" from "applied an empty head":
	// the first pass must always run the head cleanup.
	headOK   bool
	head     []HeadChild
	body     appliedTop
	frameset appliedTop
	noframes appliedTop
}

// appliedTop records the last applied innerHTML payload of one top-level
// element; ok distinguishes "applied empty" from "never applied".
type appliedTop struct {
	inner string
	ok    bool
}

// Apply installs content into doc, reusing the existing DOM wherever the
// new payload is identical to what this memo previously applied.
func (m *ApplyMemo) Apply(doc *dom.Document, content *NewContent) error {
	if m.doc != doc {
		*m = ApplyMemo{doc: doc}
	}
	root := doc.Root

	// Steps 1 and 2: head cleanup and rebuild — skipped entirely when the
	// new head children match what this memo last installed.
	if !m.headOK || !headChildrenEqual(m.head, content.Head) {
		rebuildHead(doc.Head(), content.Head)
		m.head = append(m.head[:0], content.Head...)
		m.headOK = true
	}

	// Step 3: clean up obsolete top-level elements. "If the current
	// document uses a body top-level element while the new content contains
	// a new webpage with a frameset top-level element, Ajax-Snippet will
	// remove the body node."
	for _, c := range root.ChildElements() {
		switch c.Tag {
		case "head":
			continue
		case "body":
			if content.Body == nil {
				root.RemoveChild(c)
			}
		case "frameset":
			if content.FrameSet == nil {
				root.RemoveChild(c)
			}
		case "noframes":
			if content.NoFrames == nil {
				root.RemoveChild(c)
			}
		default:
			root.RemoveChild(c)
		}
	}

	// Step 4: set the remaining top elements in content order. Attributes
	// are always refreshed (cheap); the innerHTML re-parse is skipped when
	// the payload is unchanged since the memo's last pass.
	setTop := func(tag string, te *TopElement, last *appliedTop) {
		if te == nil {
			*last = appliedTop{}
			return
		}
		el := root.FirstChildElement(tag)
		if el == nil {
			el = dom.NewElement(tag)
			root.AppendChild(el)
			*last = appliedTop{}
		}
		el.Attrs = append([]dom.Attr(nil), te.Attrs...)
		if last.ok && last.inner == te.Inner {
			return
		}
		dom.SetInnerHTML(el, te.Inner)
		*last = appliedTop{inner: te.Inner, ok: true}
	}
	setTop("body", content.Body, &m.body)
	setTop("frameset", content.FrameSet, &m.frameset)
	setTop("noframes", content.NoFrames, &m.noframes)
	return nil
}

// rebuildHead runs Figure 5 steps 1 and 2 against a head element: clean up
// keeping Ajax-Snippet itself (the snippet "always keeps itself as a
// <script> child element within the head element of any current document"),
// then append the new head children. Shared by the full and delta apply
// paths.
func rebuildHead(head *dom.Node, children []HeadChild) {
	var snippetEl *dom.Node
	for _, c := range head.ChildElements() {
		if c.Tag == "script" && c.AttrOr("id", "") == "rcb-ajax-snippet" {
			snippetEl = c
			break
		}
	}
	head.RemoveAllChildren()
	if snippetEl != nil {
		head.AppendChild(snippetEl)
	}
	for _, hc := range children {
		el := dom.NewElement(hc.Tag)
		el.Attrs = append([]dom.Attr(nil), hc.Attrs...)
		if hc.Inner != "" {
			dom.SetInnerHTML(el, hc.Inner)
		}
		head.AppendChild(el)
	}
}

// ApplyDelta applies an incremental deltaContent message to the document
// this memo last synchronized: patch scripts run in place against the live
// region elements, with no payload re-parse. Patched regions are forgotten
// by the memo (their serialized form is unknown after an in-place edit), so
// a later full snapshot re-parses them; untouched regions keep their memo
// entries and still skip byte-identical re-installs. Any error leaves the
// caller responsible for a full resync.
func (m *ApplyMemo) ApplyDelta(doc *dom.Document, d *DeltaContent) error {
	if m.doc != doc {
		return fmt.Errorf("delta received without an applied baseline")
	}
	if d.HasHead {
		rebuildHead(doc.Head(), d.Head)
		m.head = append(m.head[:0], d.Head...)
		m.headOK = true
	}
	root := doc.Root
	for _, region := range []struct {
		tag     string
		patches []dom.Patch
		last    *appliedTop
	}{
		{"body", d.Body, &m.body},
		{"frameset", d.FrameSet, &m.frameset},
		{"noframes", d.NoFrames, &m.noframes},
	} {
		if len(region.patches) == 0 {
			continue
		}
		el := root.FirstChildElement(region.tag)
		if el == nil {
			return fmt.Errorf("delta patches <%s> but the document has none", region.tag)
		}
		// Invalidate before patching: a partial apply must never let a later
		// identical-payload check skip the repair re-parse.
		*region.last = appliedTop{}
		if err := dom.Apply(el, region.patches); err != nil {
			return err
		}
	}
	return nil
}

// headChildrenEqual reports whether two head-child lists carry identical
// payloads. dom.Attr is a comparable struct, so this is pure memcmp work.
func headChildrenEqual(a, b []HeadChild) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || a[i].Inner != b[i].Inner || !attrsEqual(a[i].Attrs, b[i].Attrs) {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []dom.Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
