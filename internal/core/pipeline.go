package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// contentPipeline is the agent's content cache: "the whole response content
// generation procedure is executed only once for each new document content,
// and the generated XML format response content is reusable for multiple
// participant browsers" (§4.1.2). Per cache mode it holds the current build,
// the build in progress, and the delta-base ring — the last few replaced
// builds, newest first, each a valid base for an incremental delta, so a
// participant that skipped versions stays on the delta path. It also owns
// what a build mints: docTimes, from a strictly monotonic clock, and the
// object mapping table behind cache-mode URLs.
type contentPipeline struct {
	browser *browser.Browser
	// objectURL turns an object path ("/obj/tN") into the URL a participant
	// fetches it at.
	objectURL func(path string) string
	// deltasOn reports whether deltas are served right now. While it is
	// false a build releases the ring instead of rotating it.
	deltasOn func() bool
	// diffGate, when set, runs at the start of every diff: a test seam that
	// holds a diff in flight.
	diffGate func()

	// mu guards modes.
	mu    sync.Mutex
	modes [2]modeCache // non-cache mode, cache mode

	// lastDocTime is the newest docTime issued.
	lastDocTime atomic.Int64

	// omu guards the object mapping tables.
	omu     sync.Mutex
	mapping map[string]string // agent path "/obj/tN" → absolute URL
	tokens  map[string]string // absolute URL → agent path

	// builds counts Figure 3 pipeline executions and diffs counts delta
	// computations: with the single-flight guards each advances once per
	// (document version, mode), respectively (base, target, mode) pair.
	builds atomic.Int64
	diffs  atomic.Int64
}

// modeCache is one cache mode's builds.
type modeCache struct {
	prepared *PreparedContent
	// building is the build in progress; demands for its version wait on it.
	building *flight[*PreparedContent]
	ring     []ringBase
}

// ringBase is one retained delta base and its delta to the mode's current
// build: nil until a reader acknowledging the base asks for it, then the one
// diff every such reader shares. The finished flight stays as the cached
// answer — the encoded script, or nil when no delta was worth sending.
type ringBase struct {
	prep  *PreparedContent
	delta *flight[*preparedDelta]
}

// flight is one single-flight computation, keyed by what it produces: a
// build's document version or a delta's target docTime. The caller that
// registers it computes; concurrent callers wait on done and share val.
type flight[T any] struct {
	key  int64
	done chan struct{}
	val  T
	err  error
}

func newFlight[T any](key int64) *flight[T] {
	return &flight[T]{key: key, done: make(chan struct{})}
}

func (f *flight[T]) wait() (T, error) {
	<-f.done
	return f.val, f.err
}

// DefaultDeltaRingDepth is how many replaced builds each mode retains as
// delta bases (the delta-base ring): a participant acknowledging any
// retained build's docTime is served an incremental delta, older acks fall
// back to the full snapshot. Deep enough that a lossy participant a few
// versions behind still rides the delta path, shallow enough that the
// retained builds stay a small multiple of one snapshot.
const DefaultDeltaRingDepth = 4

func newContentPipeline(b *browser.Browser, objectURL func(string) string, deltasOn func() bool) *contentPipeline {
	return &contentPipeline{
		browser:   b,
		objectURL: objectURL,
		deltasOn:  deltasOn,
		mapping:   make(map[string]string),
		tokens:    make(map[string]string),
	}
}

func (p *contentPipeline) mode(cacheMode bool) *modeCache {
	if cacheMode {
		return &p.modes[1]
	}
	return &p.modes[0]
}

// forMode returns the current build for a mode, running the Figure 3
// pipeline when the host document changed; nil when no page is loaded yet.
// Of N concurrent demands that observe a new version exactly one builds; the
// rest wait on its flight and share the result.
func (p *contentPipeline) forMode(cacheMode bool) (*PreparedContent, error) {
	version := p.browser.Version()
	if version == 0 {
		return nil, nil
	}
	p.mu.Lock()
	m := p.mode(cacheMode)
	// >= rather than ==: a demand that read the version before a concurrent
	// bump stored newer content must take the cache, not rebuild it.
	if prep := m.prepared; prep != nil && prep.version >= version {
		p.mu.Unlock()
		return prep, nil
	}
	if f := m.building; f != nil && f.key >= version {
		p.mu.Unlock()
		return f.wait()
	}
	f := newFlight[*PreparedContent](version)
	m.building = f
	p.mu.Unlock()

	f.val, f.err = p.build(cacheMode)
	p.mu.Lock()
	// deltasOn is read under mu: the shed ladder turns deltas off before
	// its release takes mu, so a release racing this install runs after it.
	if f.err == nil {
		m.install(f.val, p.deltasOn())
	}
	if m.building == f {
		m.building = nil
	}
	p.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// install makes prep the mode's current build unless a newer one landed
// first. The replaced build joins the front of the ring, capped at
// DefaultDeltaRingDepth, and every retained base starts over with no delta:
// the cached ones targeted the replaced build, and a diff still running
// toward it finishes into a slot the ring no longer holds, so it never
// caches a stale pair. With deltas off the ring is released instead —
// nothing consumes the bases, and holding them would hoard the very memory
// the ShedNoDelta rung exists to free.
func (m *modeCache) install(prep *PreparedContent, deltasOn bool) {
	cur := m.prepared
	if cur != nil && prep.version < cur.version {
		return
	}
	if cur != nil && prep.version > cur.version {
		if deltasOn {
			ring := make([]ringBase, 1, min(len(m.ring)+1, DefaultDeltaRingDepth))
			ring[0].prep = cur
			for _, b := range m.ring[:min(len(m.ring), DefaultDeltaRingDepth-1)] {
				ring = append(ring, ringBase{prep: b.prep})
			}
			m.ring = ring
		} else {
			m.ring = nil
		}
	}
	m.prepared = prep
}

// delta returns the shared delta response for a reader of one mode that
// acknowledges base, or nil when it must fall back to the full snapshot:
// base is not in the ring (it fell off, or the agent restarted), or no
// delta was worth sending. Each (base, target) pair is diffed once — the
// first demand registers a flight in the base's ring slot, and every other
// demand, concurrent or later, is answered from it. Only pairs targeting the
// mode's current build are registered: a caller still holding a replaced
// build diffs for itself.
func (p *contentPipeline) delta(cacheMode bool, base int64, prep *PreparedContent) *preparedDelta {
	p.mu.Lock()
	m := p.mode(cacheMode)
	var slot *ringBase
	for i := range m.ring {
		if m.ring[i].prep.docTime == base {
			slot = &m.ring[i]
			break
		}
	}
	if slot == nil || prep.content == nil || slot.prep.content == nil {
		p.mu.Unlock()
		return nil
	}
	if f := slot.delta; f != nil && f.key == prep.docTime {
		p.mu.Unlock()
		d, _ := f.wait()
		return d
	}
	f := newFlight[*preparedDelta](prep.docTime)
	if prep == m.prepared {
		slot.delta = f
	}
	prev := slot.prep
	p.mu.Unlock()
	f.val = p.buildDelta(prev, prep)
	close(f.done)
	return f.val
}

// deltaPair names one delta a wake round is about to need: the reader's
// cache mode and the docTime it acknowledges.
type deltaPair struct {
	mode bool
	base int64
}

// warm builds each pair's content and its delta from the pair's base, so
// the answers that follow are cache hits.
func (p *contentPipeline) warm(pairs map[deltaPair]struct{}) {
	for k := range pairs {
		prep, err := p.forMode(k.mode)
		if err != nil || prep == nil || prep.docTime <= k.base {
			continue
		}
		p.delta(k.mode, k.base, prep)
	}
}

// release drops every mode's ring, and with it the cached and in-flight
// deltas. A diff still running hands its waiters their result, but the slot
// it would answer from is gone, so nothing is re-cached.
func (p *contentPipeline) release() {
	p.mu.Lock()
	for i := range p.modes {
		p.modes[i].ring = nil
	}
	p.mu.Unlock()
}

// latestDocTime reports the docTime of the newest build across modes (0
// before any build).
func (p *contentPipeline) latestDocTime() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var latest int64
	for i := range p.modes {
		if prep := p.modes[i].prepared; prep != nil && prep.docTime > latest {
			latest = prep.docTime
		}
	}
	return latest
}

// build runs the Figure 3 generation pipeline against the host's live
// document and returns the prepared message; its Figure 4 snapshot is
// marshaled on first demand.
func (p *contentPipeline) build(cacheMode bool) (*PreparedContent, error) {
	p.builds.Add(1)
	version := p.browser.Version()
	start := time.Now()
	var nc *NewContent
	var regions [3]*dom.Node
	err := p.browser.WithDocument(func(pageURL string, doc *dom.Document) error {
		nc, regions = generateContent(doc.Root, contentOptions{
			pageURL:     pageURL,
			docTime:     p.nextDocTime(),
			cacheMode:   cacheMode,
			resolveRef:  hostResolver(p.browser, pageURL),
			cacheHas:    p.browser.Cache.Has,
			agentURLFor: p.registerObject,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range regions {
		if r != nil {
			// Keep only the regions, not the rest of the clone.
			r.Parent.RemoveChild(r)
		}
	}
	return &PreparedContent{
		version:     version,
		docTime:     nc.DocTime,
		content:     nc,
		regions:     regions,
		extractTime: time.Since(start),
	}, nil
}

// nextDocTime issues the timestamp for a document version: wall-clock
// milliseconds (as the paper specifies) made strictly monotonic so rapid
// successive versions remain distinguishable.
func (p *contentPipeline) nextDocTime() int64 {
	for {
		last := p.lastDocTime.Load()
		t := max(time.Now().UnixMilli(), last+1)
		if p.lastDocTime.CompareAndSwap(last, t) {
			return t
		}
	}
}

// registerObject maps an absolute URL into the agent's object namespace and
// returns the participant-facing URL for it. objectURL runs outside the
// table lock: signing must not serialize other registrations.
func (p *contentPipeline) registerObject(absURL string) string {
	p.omu.Lock()
	path, ok := p.tokens[absURL]
	if !ok {
		buf := make([]byte, 0, 20)
		buf = append(buf, "/obj/t"...)
		buf = strconv.AppendInt(buf, int64(len(p.tokens)+1), 10)
		path = string(buf)
		p.tokens[absURL] = path
		p.mapping[path] = absURL
	}
	p.omu.Unlock()
	return p.objectURL(path)
}

// object looks up the absolute URL an object path was minted for.
func (p *contentPipeline) object(path string) (string, bool) {
	p.omu.Lock()
	defer p.omu.Unlock()
	absURL, ok := p.mapping[path]
	return absURL, ok
}

// exportTo records the docTime clock, the object table, and each mode's
// build at version with its ring into st. The builds are collected under mu
// and the snapshots no poll has demanded yet are marshaled after releasing
// it, so a marshal never stalls the polls that take mu.
func (p *contentPipeline) exportTo(st *agentState, version int64) {
	st.DocTime = p.lastDocTime.Load()

	p.omu.Lock()
	for path, url := range p.mapping {
		st.Objects = append(st.Objects, objectSnapshot{Path: path, URL: url})
	}
	p.omu.Unlock()
	sort.Slice(st.Objects, func(i, j int) bool {
		pi, pj := st.Objects[i].Path, st.Objects[j].Path
		if len(pi) != len(pj) {
			return len(pi) < len(pj) // "/obj/t2" before "/obj/t10"
		}
		return pi < pj
	})

	var builds [2][]*PreparedContent // per mode: the build, then its ring
	p.mu.Lock()
	for i := range p.modes {
		m := &p.modes[i]
		if m.prepared == nil || m.prepared.version != version {
			continue
		}
		builds[i] = append(builds[i], m.prepared)
		for _, b := range m.ring {
			builds[i] = append(builds[i], b.prep)
		}
	}
	p.mu.Unlock()
	for i, b := range builds {
		if len(b) == 0 {
			continue
		}
		ps := preparedSnapshot{CacheMode: i == 1, DocTime: b[0].docTime, XML: string(b[0].XML())}
		if len(b) > 1 {
			ps.PrevDocTime = b[1].docTime
			ps.PrevXML = string(b[1].XML())
			for _, r := range b[2:] {
				ps.Ring = append(ps.Ring, ringSnapshot{DocTime: r.docTime, XML: string(r.XML())})
			}
		}
		st.Prepared = append(st.Prepared, ps)
	}
}

// importFrom installs st's docTime clock (never moving it backwards), object
// table and builds: each mode's build at version, its ring newest first
// (Prev fields, then Ring) at descending synthetic versions below it. A
// build that cannot serve is dropped so the next poll rebuilds: cache-mode
// XML minted for another agent address (its object URLs point there), or
// XML that is not a newContent message (the userActions splice needs its
// closing tag).
func (p *contentPipeline) importFrom(st *agentState, version int64, sameAddr bool) {
	for {
		last := p.lastDocTime.Load()
		if st.DocTime <= last || p.lastDocTime.CompareAndSwap(last, st.DocTime) {
			break
		}
	}

	p.omu.Lock()
	p.mapping = make(map[string]string, len(st.Objects))
	p.tokens = make(map[string]string, len(st.Objects))
	for _, os := range st.Objects {
		p.mapping[os.Path] = os.URL
		p.tokens[os.URL] = os.Path
	}
	p.omu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.modes = [2]modeCache{}
	for _, ps := range st.Prepared {
		if ps.CacheMode && !sameAddr || !strings.HasSuffix(ps.XML, closeNewContent) {
			continue
		}
		m := p.mode(ps.CacheMode)
		if ps.PrevXML != "" {
			ring := []ringBase{{prep: importedPrepared(version-1, ps.PrevDocTime, ps.PrevXML)}}
			for _, rs := range ps.Ring {
				ring = append(ring, ringBase{prep: importedPrepared(version-1-int64(len(ring)), rs.DocTime, rs.XML)})
			}
			m.ring = ring
		}
		m.prepared = importedPrepared(version, ps.DocTime, ps.XML)
	}
}

// importedPrepared reconstructs a PreparedContent from exported XML. A
// snapshot whose XML no longer parses degrades gracefully: content stays
// nil, which only disables the delta fast path.
func importedPrepared(version, docTime int64, xml string) *PreparedContent {
	b := []byte(xml)
	prep := &PreparedContent{version: version, docTime: docTime}
	// The snapshot arrives marshaled: fill it through the lazy path's guard
	// so no demand ever re-renders it.
	prep.xmlOnce.Do(func() { prep.setXML(b) })
	if nc, err := Unmarshal(b); err == nil {
		prep.content = nc
	}
	return prep
}

// PreparedContent caches one generated message per (document version,
// cache mode). The pipeline runs only the extraction; the Figure 4 snapshot
// is marshaled once, on the first full-snapshot demand (see marshal), so a
// version that only ever reaches delta readers never pays the escape()
// encoding.
type PreparedContent struct {
	version int64
	docTime int64
	// content is the extracted message (head children and region payloads):
	// the snapshot is marshaled from it and the delta path compares heads
	// through it.
	content *NewContent
	// regions are the rewritten clone's body, frameset and noframes
	// elements (deltaRegionTags order) that content's region payloads were
	// serialized from — the raw material of participantTree. Nil for
	// imported builds, and released once participantTree has run.
	regions [3]*dom.Node
	// normOnce/normTree lazily cache the participant-equivalent view of
	// this build — see participantTree. Only the delta path pays for it.
	normOnce sync.Once
	normTree *dom.Node
	// extractTime is how long the Figure 3 clone, rewrite and extraction
	// took; marshalTime adds the Figure 4 encoding once it has run.
	extractTime time.Duration

	// xmlOnce guards the lazily marshaled snapshot: xml, splice, resp and
	// marshalTime are written inside it and read only after it.
	xmlOnce sync.Once
	xml     []byte
	// splice is the offset of the closing </newContent> tag: per-participant
	// userActions are inserted here by two appends, never a re-marshal.
	splice int
	// resp is the ready-to-send response wrapping xml. PreparedContent is
	// immutable once marshaled and WriteResponse only reads, so one response
	// object fans out to every participant without a per-poll header
	// allocation.
	resp        *httpwire.Response
	marshalTime time.Duration
	// marshals counts runs of the lazy marshal (at most one; zero while only
	// deltas were served from this build).
	marshals atomic.Int32
}

// marshal renders the Figure 4 snapshot on its first demand — a first
// poll, a base off the delta ring, an oversized or region-changing delta,
// a non-delta reader, deltas shed, a userActions splice, XML or
// ExportState. Concurrent demands wait on the one rendering.
func (p *PreparedContent) marshal() {
	p.xmlOnce.Do(func() {
		start := time.Now()
		p.setXML(p.content.Marshal())
		p.marshalTime = time.Since(start)
		p.marshals.Add(1)
	})
}

func (p *PreparedContent) setXML(xml []byte) {
	p.xml = xml
	p.splice = len(xml) - len(closeNewContent)
	p.resp = httpwire.NewResponse(200, "application/xml", xml)
}

// XML returns the marshaled Figure 4 message, marshaling it on first use.
// The slice is shared across participants and must not be mutated.
func (p *PreparedContent) XML() []byte {
	p.marshal()
	return p.xml
}

// DocTime returns the message timestamp.
func (p *PreparedContent) DocTime() int64 { return p.docTime }

// GenTime returns how long the Figure 3 pipeline took to produce this
// content's Figure 4 message — extraction plus marshal, the paper's M5
// metric. It forces the marshal if nothing has demanded it yet.
func (p *PreparedContent) GenTime() time.Duration {
	p.marshal()
	return p.extractTime + p.marshalTime
}

// participantTree reconstructs what a participant document's top-level
// regions look like after applying this build's message in full: each
// region element gets the message's attribute list and the ParseFragment
// of its innerHTML payload — exactly the installation the snippet's full
// apply performs. Deltas must be diffed between these trees, not the raw
// clones they were extracted from: DOM-API mutations can leave empty or
// adjacent text nodes in the host document that serialization erases, so
// the clone and the participant's parsed copy can disagree on child
// indexes even though they serialize identically. dom.Canonicalize turns a
// clone region into that parse in place, without the serialize-and-parse
// round trip; a region it cannot vouch for (and an imported build, which
// has no clone) is parsed from its payload instead. The reconstruction is
// lazy and cached — the full-snapshot path never pays for it.
func (p *PreparedContent) participantTree() *dom.Node {
	p.normOnce.Do(func() {
		root := dom.NewElement("html")
		for i, te := range [...]*TopElement{p.content.Body, p.content.FrameSet, p.content.NoFrames} {
			if te == nil {
				continue
			}
			el := p.regions[i]
			if el == nil || !dom.Canonicalize(el) {
				el = dom.NewElement(deltaRegionTags[i])
				el.Attrs = append([]dom.Attr(nil), te.Attrs...)
				if te.Inner != "" {
					dom.SetInnerHTML(el, te.Inner)
				}
			}
			root.AppendChild(el)
		}
		p.normTree = root
		p.regions = [3]*dom.Node{}
	})
	return p.normTree
}

// WithUserActions returns the cached message with a userActions element for
// one participant spliced in before the closing tag. The cached document
// payload is never re-rendered: the result is the shared bytes around one
// freshly encoded actions element.
func (p *PreparedContent) WithUserActions(actions []Action) []byte {
	p.marshal()
	if len(actions) == 0 {
		return p.xml
	}
	out := make([]byte, 0, len(p.xml)+spliceSizeHint(actions))
	out = append(out, p.xml[:p.splice]...)
	out = appendUserActions(out, actions)
	out = append(out, p.xml[p.splice:]...)
	return out
}

// spliceSizeHint estimates the encoded size of a userActions element so the
// splice buffer is sized in one allocation.
func spliceSizeHint(actions []Action) int {
	return 48 + 96*len(actions)
}

// deltaRegionTags are the top-level regions a delta can patch.
var deltaRegionTags = [...]string{"body", "frameset", "noframes"}

// buildDelta computes and encodes the edit script between two builds.
// Diffs run between the builds' participant-equivalent trees (see
// participantTree), never the live clones, so patch paths resolve on what
// participants actually hold. It returns nil when no worthwhile delta
// exists: the top-level region set changed (the snippet's cleanup step
// handles that transition on the full path), or the encoded message is not
// smaller than the full snapshot.
func (p *contentPipeline) buildDelta(prev, cur *PreparedContent) *preparedDelta {
	p.diffs.Add(1)
	if p.diffGate != nil {
		p.diffGate()
	}
	d := &DeltaContent{DocTime: cur.docTime, BaseDocTime: prev.docTime}
	if !headChildrenEqual(prev.content.Head, cur.content.Head) {
		d.HasHead = true
		d.Head = cur.content.Head
	}
	if (prev.content.Body == nil) != (cur.content.Body == nil) ||
		(prev.content.FrameSet == nil) != (cur.content.FrameSet == nil) ||
		(prev.content.NoFrames == nil) != (cur.content.NoFrames == nil) {
		return nil
	}
	pt, ct := prev.participantTree(), cur.participantTree()
	for _, tag := range deltaRegionTags {
		po, co := pt.FirstChildElement(tag), ct.FirstChildElement(tag)
		if po == nil || co == nil {
			continue // absent on both sides, per the presence check above
		}
		patches := dom.Diff(po, co)
		if len(patches) == 0 {
			continue
		}
		switch tag {
		case "body":
			d.Body = patches
		case "frameset":
			d.FrameSet = patches
		default:
			d.NoFrames = patches
		}
	}
	xml := d.Marshal()
	// Oversized: the snapshot is cheaper to ship and apply. escape() never
	// shrinks its input, so a delta shorter than the raw payloads is shorter
	// than the snapshot without marshaling it; only a delta at least that
	// long needs the snapshot's exact length.
	if len(xml) >= cur.content.payloadLen() && len(xml) >= len(cur.XML()) {
		return nil
	}
	return &preparedDelta{
		baseDocTime: prev.docTime,
		docTime:     cur.docTime,
		xml:         xml,
		splice:      len(xml) - len(closeDeltaContent),
		resp:        httpwire.NewResponse(200, "application/xml", xml),
	}
}
