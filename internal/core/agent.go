package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// Participant is the published state of one connected co-browsing
// participant — a plain value snapshot, safe to copy.
type Participant struct {
	ID        string
	CacheMode bool
	// LastDocTime is the docTime the participant last acknowledged, carried
	// back on each polling request (the timestamp protocol of §4.1.1).
	LastDocTime int64
	LastSeen    time.Time
	Polls       int64
}

// participantState is the live record behind a Participant: the snapshot
// fields plus the delivery outbox, guarded by its own mutex so polls from
// different participants never contend with each other.
type participantState struct {
	mu sync.Mutex
	Participant
	outbox []Action // other users' actions awaiting delivery
}

// PendingAction is a participant action awaiting host confirmation under a
// moderating policy.
type PendingAction struct {
	Seq           int64
	ParticipantID string
	Action        Action
}

// maxOutbox bounds per-participant queued mirror actions; pointer streams
// are lossy by nature, so old entries are dropped first.
const maxOutbox = 256

// Agent is RCB-Agent: the HTTP service a co-browsing host runs inside its
// browser. It implements httpwire.Handler; back it with any listener (real
// TCP in cmd/rcb-host, the virtual network in tests and experiments).
//
// # Delivery modes
//
// The agent answers polls in two ways. Through ServeWire (plain
// httpwire.Handler) every poll completes immediately, exactly as §4.1.1
// specifies — empty response when nothing changed. Through ServeWireAsync
// (httpwire.AsyncHandler, which httpwire.Server prefers automatically) a
// poll carrying a wait=<ms> form field that finds nothing new parks on the
// delivery hub and completes when the host document changes, a mirror
// action lands in the participant's outbox, the participant is
// disconnected, or min(wait, MaxPollWait) elapses — the hanging-GET channel
// that removes the polling interval from the staleness floor. Polls without
// a wait field behave identically on both paths, so interval-mode snippets
// (the paper's semantics) are unaffected.
//
// Internal state is sharded across independent locks so the serve path
// scales with participant count: the participant table (read-mostly, an
// RWMutex plus per-participant locks), the object mapping table, the
// prepared-content cache, the moderation queue, the docTime clock, and the
// long-poll delivery hub each contend only with themselves.
type Agent struct {
	// Browser is the host browser whose document is shared.
	Browser *browser.Browser
	// Addr is the agent's own reachable address ("host.lan:3000"), used
	// when rewriting cached-object URLs.
	Addr string
	// Policy gates participant actions. Defaults to OpenPolicy.
	Policy Policy
	// Auth, when non-nil, enforces HMAC request authentication (§3.4).
	Auth *Authenticator
	// DefaultCacheMode selects the mode for new participants. Mode can be
	// changed per participant afterwards (SetParticipantMode).
	DefaultCacheMode bool
	// AutoSubmitForms, when set, immediately submits a form to the origin
	// after merging a participant's formsubmit action. When unset the data
	// is only merged into the host DOM (the host user submits manually, as
	// Bob does in the shopping study).
	AutoSubmitForms bool
	// MaxPollWait caps how long a long-poll may park, whatever the client
	// requested; zero means DefaultMaxPollWait. A parked poll that reaches
	// the cap completes with the empty response — the §4.1.1 degradation,
	// so a long-poll participant is never worse off than an interval one.
	MaxPollWait time.Duration
	// WakeDebounce coalesces document-change wake-ups of parked long-polls:
	// a burst of host mutations inside the window wakes the fleet at most
	// twice (once at the leading edge, once after the window with the latest
	// version) instead of once per mutation. The trailing wake also
	// precomputes the deltas the woken fleet is about to request (one diff
	// per distinct acked base) before fan-out. Zero disables coalescing. Set
	// before serving traffic.
	WakeDebounce time.Duration
	// DisableDelta turns off incremental deltaContent responses: every
	// content-carrying poll gets the full Figure 4 snapshot, as the paper
	// specifies. Deltas are also skipped per poll unless the request opts in
	// with a delta=1 field, so foreign interval-mode clients never see them.
	DisableDelta bool
	// DeltaRingDepth sets how many replaced builds each mode retains as
	// delta bases (the delta-base ring). A participant acknowledging any
	// retained build's docTime is served an incremental delta; older acks
	// fall back to the full snapshot. Zero means DefaultDeltaRingDepth. Set
	// before serving traffic.
	DeltaRingDepth int
	// DisableChannel refuses persistent-channel upgrades (POST /channel):
	// every upgrade attempt gets the retry-carrying OVERCOMMITTED refusal and
	// participants stay on the long-poll/interval tiers. An operator knob for
	// deployments where proxies mishandle long-lived upgraded connections.
	DisableChannel bool
	// MaxParticipants caps concurrent participants; further connection
	// requests are refused with SessionFull. Zero means unlimited.
	MaxParticipants int
	// MaxParkedPolls caps concurrently parked long-polls; polls beyond the
	// cap answer immediately with a retry-after hint instead of parking.
	// Zero means unlimited.
	MaxParkedPolls int
	// MaxAckLag, when positive, disconnects (StaleReader) participants
	// whose acknowledged docTime lags the current build by more than this
	// many builds — a slow reader that can no longer catch up must not pin
	// agent state.
	MaxAckLag int
	// MaxParkAge, when positive, bounds one parked poll's hang below
	// MaxPollWait; a poll that parks the full age without the participant
	// ever being woken marks the reader stale and disconnects it with
	// StaleReader.
	MaxParkAge time.Duration
	// Shed configures the load-shedding ladder (see ShedLevel); the zero
	// value disables shedding.
	Shed ShedWatermarks
	// ShedRetryAfter is the server-assigned retry interval handed to
	// clients while the ladder forces interval polling. Zero means
	// DefaultShedRetryAfter. Set before serving traffic.
	ShedRetryAfter time.Duration
	// ReadHeap overrides the heap-usage probe for the shed ladder (tests
	// inject pressure); nil reads runtime.MemStats.HeapAlloc.
	ReadHeap func() uint64
	// AllowHandover, when set, lets another agent process push session
	// state into this one through the /handover/ handshake (state.go,
	// handover.go). Off by default: an agent must opt in to being a
	// migration target.
	AllowHandover bool
	// MovedRetryAfter is the retry hint attached to MOVED responses after
	// a handover relocated this session; zero means DefaultMovedRetryAfter.
	MovedRetryAfter time.Duration
	// Logf, when non-nil, receives diagnostics.
	Logf func(format string, args ...any)

	// pmu guards the participant table and ID counter. Polls only take the
	// read lock; per-participant fields are guarded by each entry's own
	// mutex. closedReasons remembers why recently removed participants were
	// disconnected, so their next request carries the reason instead of a
	// bare "unknown participant".
	pmu           sync.RWMutex
	participants  map[string]*participantState
	nextPID       int
	closedReasons map[string]CloseReason
	closedOrder   []string

	// dmu guards the action replay filter (dedup.go). dedupTick is the
	// agent-wide activity counter behind LRU eviction; dedupNow overrides
	// the idle-eviction clock in tests (nil means time.Now).
	dmu       sync.Mutex
	dedup     map[string]*dedupState
	dedupTick int64
	dedupNow  func() time.Time

	// omu guards the object mapping tables (agent path ↔ absolute URL).
	omu     sync.Mutex
	mapping map[string]string // agent path "/obj/tN" → absolute URL
	tokens  map[string]string // absolute URL → agent path

	// cmu guards the prepared-content cache and the single-flight guard:
	// of N concurrent polls that observe a new document version, exactly
	// one runs the Figure 3 pipeline; the rest block on its result. The
	// delta cache rides the same lock: prevRing holds the last few replaced
	// builds per mode, newest first (every member is a valid delta base, so
	// a participant that skipped versions stays on the delta path), delta
	// holds the encoded script per (base → current) pair — or a recorded
	// "not worth it" — and deltaInflight single-flights each pair's
	// computation so N concurrent delta-eligible polls on one pair cost one
	// dom.Diff.
	cmu           sync.Mutex
	prepared      map[bool]*PreparedContent
	inflight      map[bool]*contentCall
	prevRing      map[bool][]*PreparedContent
	delta         map[bool]map[int64]*deltaEntry
	deltaInflight map[bool]map[int64]*deltaCall

	// amu guards the moderation queue and action sequencing.
	amu       sync.Mutex
	pending   []PendingAction
	actionSeq int64

	// tmu guards the monotonic docTime clock.
	tmu         sync.Mutex
	lastDocTime int64

	// smu is the serve/state barrier. Every request path that can mutate
	// session state holds the read side for its synchronous extent, so
	// ExportState — and the relocation fence a handover plants — can take
	// the write side and observe the session with no merge in flight: a
	// checkpoint can never contain a replay stamp without its document
	// effect, or vice versa. relocatedTo, once set under the write lock,
	// makes every subsequent request answer MOVED with that address in
	// RelocateHeader. (Host-side APIs like HostAction bypass the barrier;
	// rcb-host only checkpoints between, not during, host interactions,
	// and a restore always resyncs participants anyway.)
	smu         sync.RWMutex
	relocatedTo string

	// hmu guards the receiver half of the handover handshake (handover.go):
	// the outstanding transfer token and how far the exchange progressed.
	hmu              sync.Mutex
	handoverToken    string
	handoverImported bool
	handoverDone     bool

	// hub parks long-polls and wakes them on document changes, outbox
	// enqueues, and disconnects.
	hub *deliveryHub

	// chmu guards the persistent-channel registry (channel.go): at most one
	// framed full-duplex channel per participant, keyed by pid.
	chmu     sync.Mutex
	channels map[string]*agentChannel

	// builds counts Figure 3 pipeline executions — the observable the
	// single-flight tests and cache-effectiveness metrics key on.
	builds atomic.Int64
	// actionPushes counts accepted /action upstream requests — the
	// observable the fallback tests key on (an interval-mode or degraded
	// snippet must never advance it).
	actionPushes atomic.Int64
	// diffBuilds counts dom.Diff delta computations; with the delta
	// single-flight guard this advances once per (base, target, mode) pair.
	diffBuilds atomic.Int64
	// deltasServed counts polls answered with a deltaContent message.
	deltasServed atomic.Int64

	// Persistent-channel observables (channel.go): open channels, frames in
	// each direction, and upgrades refused or channels closed toward the
	// degradation ladder.
	channelsOpen     atomic.Int64
	framesOut        atomic.Int64
	framesIn         atomic.Int64
	channelFallbacks atomic.Int64

	// Overload-control observables: every admission or degradation decision
	// advances a counter.
	joinRefusals     atomic.Int64 // joins refused (cap or shed ladder)
	parkRefusals     atomic.Int64 // long-polls answered immediately (cap or shed ladder)
	staleKicks       atomic.Int64 // participants disconnected as StaleReader
	duplicateActions atomic.Int64 // actions dropped by the replay filter
	outboxDepth      atomic.Int64 // queued mirror actions across all outboxes

	// shed holds the load-shedding ladder state (overload.go).
	shed shedState

	// buildHist remembers recent build docTimes per mode — the ruler the
	// stale-reader reaper measures ack lag against. Guarded by cmu.
	buildHist map[bool][]int64
}

// maxBuildHist bounds the per-mode build history; MaxAckLag beyond this is
// effectively "never stale by lag".
const maxBuildHist = 64

// DefaultDeltaRingDepth is the delta-base ring depth when
// Agent.DeltaRingDepth is zero: deep enough that a lossy participant a few
// versions behind still rides the delta path, shallow enough that the
// retained builds stay a small multiple of one snapshot.
const DefaultDeltaRingDepth = 4

// deltaRingDepth resolves the effective ring depth.
func (a *Agent) deltaRingDepth() int {
	if a.DeltaRingDepth > 0 {
		return a.DeltaRingDepth
	}
	return DefaultDeltaRingDepth
}

// deltaEntry records the delta decision for one (base → target) pair: d is
// nil when a delta exists but was not worth sending (oversized, or the
// top-level region set changed), so the question is not re-asked per poll.
type deltaEntry struct {
	base, target int64
	d            *preparedDelta
}

// deltaCall is one in-flight delta computation concurrent polls wait on.
type deltaCall struct {
	base, target int64
	done         chan struct{}
	d            *preparedDelta
}

// contentCall is one in-flight BuildContent execution that concurrent polls
// wait on instead of re-running the pipeline.
type contentCall struct {
	version int64
	done    chan struct{}
	prep    *PreparedContent
	err     error
}

// PreparedContent caches one generated message per (document version,
// cache mode): "the whole response content generation procedure is executed
// only once for each new document content, and the generated XML format
// response content is reusable for multiple participant browsers" (§4.1.2).
// BuildContent runs only the extraction; the Figure 4 snapshot is marshaled
// once, on the first full-snapshot demand (see marshal), so a version that
// only ever reaches delta readers never pays the escape() encoding.
type PreparedContent struct {
	version int64
	docTime int64
	// content is the extracted message (head children and region payloads):
	// the snapshot is marshaled from it, the delta path compares heads
	// through it and reconstructs the participant-equivalent tree from it
	// (participantTree).
	content *NewContent
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
// a non-delta reader, deltas shed or disabled, a userActions splice, XML or
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
// apply performs. Deltas must be diffed between these trees, not the live
// clones they were extracted from: DOM-API mutations can leave empty or
// adjacent text nodes in the host document that serialization erases, so
// the clone and the participant's parsed copy can disagree on child
// indexes even though they serialize identically. The reconstruction is
// lazy and cached — the full-snapshot path never pays for it.
func (p *PreparedContent) participantTree() *dom.Node {
	p.normOnce.Do(func() {
		root := dom.NewElement("html")
		add := func(tag string, te *TopElement) {
			if te == nil {
				return
			}
			el := dom.NewElement(tag)
			el.Attrs = append([]dom.Attr(nil), te.Attrs...)
			if te.Inner != "" {
				dom.SetInnerHTML(el, te.Inner)
			}
			root.AppendChild(el)
		}
		add("body", p.content.Body)
		add("frameset", p.content.FrameSet)
		add("noframes", p.content.NoFrames)
		p.normTree = root
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

// DefaultMaxPollWait is the long-poll hang cap when Agent.MaxPollWait is
// zero. Long enough that an idle session costs a handful of requests per
// minute; short enough that intermediaries with idle-connection timeouts
// see regular traffic.
const DefaultMaxPollWait = 25 * time.Second

// NewAgent returns an agent for the given host browser, reachable at addr.
// The agent subscribes to the browser's change notifications so parked
// long-polls wake the moment the host document mutates or navigates.
func NewAgent(b *browser.Browser, addr string) *Agent {
	a := &Agent{
		Browser:       b,
		Addr:          addr,
		Policy:        OpenPolicy(),
		participants:  make(map[string]*participantState),
		mapping:       make(map[string]string),
		tokens:        make(map[string]string),
		prepared:      make(map[bool]*PreparedContent),
		inflight:      make(map[bool]*contentCall),
		prevRing:      make(map[bool][]*PreparedContent),
		delta:         make(map[bool]map[int64]*deltaEntry),
		deltaInflight: make(map[bool]map[int64]*deltaCall),
		closedReasons: make(map[string]CloseReason),
		dedup:         make(map[string]*dedupState),
		buildHist:     make(map[bool][]int64),
		hub:           newDeliveryHub(),
		channels:      make(map[string]*agentChannel),
	}
	// The trailing edge of a debounced wake runs on its own timer goroutine
	// with the whole woken fleet in hand — the one place the deltas the
	// fleet is about to ask for can be computed before fan-out.
	a.hub.preWake = a.warmWakeDeltas
	b.OnChange(func() {
		a.hub.notifyAllDebounced(a.WakeDebounce)
		// Channel writers coalesce through their cap-1 notify slots, so the
		// fleet wake needs no debounce of its own.
		a.notifyAllChannels()
	})
	return a
}

// Close releases the delivery hub and the persistent channels: every parked
// long-poll completes with the empty response, every open channel receives
// an AGENT_CLOSING close frame, and later polls answer immediately,
// interval-style. The agent remains usable afterwards — Close only retires
// the push channels, typically just before the enclosing httpwire.Server
// closes.
func (a *Agent) Close() {
	a.hub.close()
	a.closeAllChannels(closeSignal{reason: CloseAgentClosing})
}

// ParkedPolls reports how many long-polls are currently parked — the
// observable fan-out tests and benchmarks synchronize on.
func (a *Agent) ParkedPolls() int { return a.hub.parkedCount() }

// WakeFanouts reports how many document-change wake rounds actually woke
// parked polls — with WakeDebounce set, a burst of M host mutations
// advances this by at most 2.
func (a *Agent) WakeFanouts() int64 { return a.hub.wakeFanouts() }

// maxPollWait resolves the effective long-poll cap.
func (a *Agent) maxPollWait() time.Duration {
	if a.MaxPollWait > 0 {
		return a.MaxPollWait
	}
	return DefaultMaxPollWait
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// URL returns the agent's base URL, the address a participant types into
// the browser address bar (paper step 2).
func (a *Agent) URL() string { return "http://" + a.Addr }

// ServeWire implements httpwire.Handler, classifying requests as Figure 2
// does — a new connection request (GET with root URI), an object request
// (GET with a resource URI, cache mode), or an Ajax polling request (always
// POST, so action data can be piggybacked) — plus two routes the paper does
// not have: the fire-and-forget action upstream (POST /action), which
// carries participant actions without waiting for the next poll cycle, and
// the agent-to-agent handover handshake (POST /handover/*, handover.go).
func (a *Agent) ServeWire(req *httpwire.Request) *httpwire.Response {
	if req.Method == "POST" && strings.HasPrefix(req.Path(), "/handover/") {
		// The handshake manages the state barrier itself (ImportState takes
		// the write side) and must stay reachable on a relocated agent so
		// chained migrations work.
		if errResp := a.verifyAuth(req); errResp != nil {
			return errResp
		}
		return a.serveHandover(req)
	}
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		return a.movedResponse()
	}
	return a.route(req)
}

// route dispatches one non-handover request; the caller holds the read side
// of the serve/state barrier.
func (a *Agent) route(req *httpwire.Request) *httpwire.Response {
	switch {
	case req.Method == "GET" && req.Path() == "/":
		return a.serveInitialPage(req)
	case req.Method == "POST" && req.Path() == "/poll":
		if errResp := a.verifyAuth(req); errResp != nil {
			return errResp
		}
		return a.servePoll(req)
	case req.Method == "POST" && req.Path() == "/action":
		if errResp := a.verifyAuth(req); errResp != nil {
			return errResp
		}
		return a.serveAction(req)
	case req.Method == "POST" && req.Path() == "/channel":
		if errResp := a.verifyAuth(req); errResp != nil {
			return errResp
		}
		return a.serveChannelUpgrade(req)
	case req.Method == "GET":
		if errResp := a.verifyAuth(req); errResp != nil {
			return errResp
		}
		return a.serveObject(req)
	default:
		return httpwire.NewResponse(405, "text/plain", []byte("method not allowed\n"))
	}
}

// verifyAuth runs the §3.4 HMAC check when authentication is on, returning
// the 401 to send or nil to proceed. Shared by the sync and async serve
// paths so a future tightening cannot apply to only one of them.
func (a *Agent) verifyAuth(req *httpwire.Request) *httpwire.Response {
	if a.Auth != nil && !a.Auth.Verify(req.Method, req.Target, req.Body) {
		return badHMACResponse
	}
	return nil
}

// serveInitialPage answers a new connection request with the initial HTML
// page whose head element contains Ajax-Snippet (paper §4.1.1). A
// participant identity is issued as a cookie so subsequent polls and object
// requests can be attributed. Admission control runs first: a session at
// its participant cap — or an agent shedding joins — refuses with
// SessionFull and a retry-after hint rather than registering state it
// cannot serve.
func (a *Agent) serveInitialPage(_ *httpwire.Request) *httpwire.Response {
	a.maybeEvalLoad()
	if a.ShedLevel() >= ShedRefuseJoins {
		a.joinRefusals.Add(1)
		return a.joinRefusedResponse()
	}
	if a.handoverPending() {
		// A transfer is mid-flight: admitting a participant now would
		// split the session between the incoming state and this join.
		a.joinRefusals.Add(1)
		return a.joinRefusedResponse()
	}
	mode := a.DefaultCacheMode
	a.pmu.Lock()
	if a.MaxParticipants > 0 && len(a.participants) >= a.MaxParticipants {
		a.pmu.Unlock()
		a.joinRefusals.Add(1)
		return a.joinRefusedResponse()
	}
	a.nextPID++
	pid := "p" + strconv.Itoa(a.nextPID)
	a.participants[pid] = &participantState{
		Participant: Participant{ID: pid, CacheMode: mode, LastSeen: time.Now()},
	}
	a.pmu.Unlock()
	a.logf("rcb-agent: participant %s connected (cache mode %v)", pid, mode)

	page := `<!DOCTYPE html><html><head><title>RCB Session</title>` +
		`<script id="rcb-ajax-snippet">` + snippetScript + `</script>` +
		`</head><body><div id="rcb-status">Connecting to co-browsing session...</div>` +
		`<form id="rcb-key" onsubmit="return __rcb.setKey(this)">` +
		`<input type="password" name="key" value=""><input type="submit" value="Join"></form>` +
		`</body></html>`
	resp := httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(page))
	resp.Header.Set("Set-Cookie", "rcbpid="+pid+"; Path=/")
	return resp
}

// snippetScript is the JavaScript text embedded in the initial page. The
// reproduction executes the equivalent logic in Go (see Snippet); the text
// is included so the initial page is faithful and so head-cleanup keeps a
// real script element to preserve.
const snippetScript = `/* RCB Ajax-Snippet: poll agent, apply newContent, piggyback actions */`

// serveObject answers a cache-mode object request by reading the host
// browser's cache through the mapping table (paper §4.1.1: "RCB-Agent keeps
// a mapping table, in which the request-URI of each cached object maps to a
// corresponding cache key").
func (a *Agent) serveObject(req *httpwire.Request) *httpwire.Response {
	target := req.Path()
	a.omu.Lock()
	absURL, ok := a.mapping[target]
	a.omu.Unlock()
	if !ok {
		return httpwire.NewResponse(404, "text/plain", []byte("unknown object\n"))
	}
	entry, ok := a.Browser.Cache.Get(absURL)
	if !ok {
		// Cache entry evicted after the URL was rewritten; the participant
		// can still fall back to the origin in non-cache mode next sync.
		return httpwire.NewResponse(404, "text/plain", []byte("object no longer cached\n"))
	}
	resp := httpwire.NewResponse(200, entry.ContentType, entry.Body)
	resp.Header.Set("Cache-Control", "max-age=3600")
	return resp
}

// ServeWireAsync implements httpwire.AsyncHandler. Polling requests that
// ask for long-poll delivery (wait=<ms> form field) and find nothing new
// park on the delivery hub; every other request — and every poll with
// something to deliver — answers inline. respond is the server's completion
// callback and may be invoked later from a hub wake-up goroutine.
func (a *Agent) ServeWireAsync(req *httpwire.Request, respond func(*httpwire.Response)) {
	if req.Method != "POST" || req.Path() != "/poll" {
		// Everything but a poll — including the /action upstream — answers
		// inline: an action POST must acknowledge immediately, never park.
		respond(a.ServeWire(req))
		return
	}
	// The barrier read lock covers the synchronous extent of the poll —
	// merge, park registration — but not the parked wait itself; a poll
	// woken later re-enters through wakePoll, which takes its own RLock.
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		respond(a.movedResponse())
		return
	}
	if errResp := a.verifyAuth(req); errResp != nil {
		respond(errResp)
		return
	}
	p, ts, wait, deltaOK, errResp := a.pollSetup(req)
	if errResp != nil {
		respond(errResp)
		return
	}
	a.maybeEvalLoad()
	// Overload enforcement: at ShedInterval and above — or past the
	// parked-poll cap — a would-be long-poll answers immediately and
	// carries the server-assigned retry interval, degrading the client to
	// the paper's interval polling until pressure clears.
	parkRefused := false
	if wait > 0 {
		if a.ShedLevel() >= ShedInterval {
			parkRefused = true
		} else if a.MaxParkedPolls > 0 && a.hub.parkedCount() >= a.MaxParkedPolls {
			parkRefused = true
		}
		if parkRefused {
			a.parkRefusals.Add(1)
			wait = 0
		}
	}
	// A slow-reader bound below the poll cap: the park completes early and
	// marks the reader stale if nothing woke it by then.
	staleOnTimeout := false
	if a.MaxParkAge > 0 && wait > a.MaxParkAge {
		wait = a.MaxParkAge
		staleOnTimeout = true
	}
	pid := p.ID
	for {
		// Snapshot before the check: park refuses a stale snapshot, so an
		// event landing between this check and registration forces another
		// pass instead of being slept through.
		snap := a.hub.snapshot(pid)
		resp, hasNew := a.pollResponse(p, ts, deltaOK)
		if hasNew || wait <= 0 {
			if !hasNew && parkRefused {
				resp = a.shedEmptyResponse()
			}
			respond(resp)
			return
		}
		w := &pollWaiter{pid: pid, ts: ts, deltaOK: deltaOK, staleOnTimeout: staleOnTimeout}
		w.fulfill = func(reply *pollReply) { respond(a.wakePoll(w, reply)) }
		parked, retry := a.hub.park(w, snap, wait)
		if parked {
			return
		}
		if !retry {
			// Hub closed: the agent is shutting down. Complete with the
			// empty response marked AgentClosing so the snippet backs off
			// instead of immediately re-parking against a dying server.
			respond(agentClosingPollResponse)
			return
		}
	}
}

// wakePoll completes one parked long-poll after its hub wake-up: a timeout
// or shutdown degrades to the §4.1.1 empty response; a real notification
// re-runs the step 2/3 check and delivers whatever is current (the
// re-check rides the single-flight guard, so N waiters waking on one
// document change still cost exactly one BuildContent).
func (a *Agent) wakePoll(w *pollWaiter, reply *pollReply) *httpwire.Response {
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		return a.movedResponse()
	}
	if reply.closed {
		// Agent shutdown: tell the snippet why so it backs off.
		return agentClosingPollResponse
	}
	if reply.timedOut {
		if w.staleOnTimeout {
			// The poll aged out below the normal cap (MaxParkAge): nothing
			// woke this participant for the whole bound, so treat it as a
			// reader too slow to keep pinning agent state.
			a.staleKicks.Add(1)
			a.DisconnectWith(w.pid, CloseStaleReader)
			return closeResponse(CloseStaleReader)
		}
		return emptyPollResponse
	}
	p := a.participant(w.pid)
	if p == nil {
		// Disconnected while parked: the same answer a live poll would get.
		return a.disconnectedResponse(w.pid)
	}
	resp, _ := a.pollResponse(p, w.ts, w.deltaOK)
	return resp
}

// servePoll handles an Ajax polling request through the three steps of
// §4.1.1: data merging, timestamp inspection, response sending. This is the
// synchronous flavor: a wait field is ignored and the response — possibly
// the empty one — is always immediate. The long-poll flavor lives in
// ServeWireAsync.
func (a *Agent) servePoll(req *httpwire.Request) *httpwire.Response {
	p, ts, _, deltaOK, errResp := a.pollSetup(req)
	if errResp != nil {
		return errResp
	}
	resp, _ := a.pollResponse(p, ts, deltaOK)
	return resp
}

// serveAction answers a fire-and-forget action upstream request: the poll
// protocol's step 1 (data merging) split out onto its own endpoint, so a
// participant action reaches the host the moment it occurs instead of
// riding the next request cycle — the latency cut matters most when the
// participant's polling request is parked on the delivery hub for seconds.
// The actions run through the same policy/moderation pipeline as
// piggybacked ones, and the resulting document mutation or broadcast wakes
// parked long-polls through the existing hub paths, so mirrored
// participants and the host see the action within one hang-wake. The
// response is an empty acknowledgment; document content only ever travels
// on poll responses.
func (a *Agent) serveAction(req *httpwire.Request) *httpwire.Response {
	pid := pidFromRequest(req)
	var payload string
	for _, f := range httpwire.ParseForm(string(req.Body)) {
		switch f.Name {
		case "actions":
			payload = f.Value
		case "pid":
			if pid == "" {
				pid = f.Value
			}
		}
	}
	p := a.participant(pid)
	if p == nil {
		return a.disconnectedResponse(pid)
	}
	actions, err := DecodeActions(payload)
	if err != nil || len(actions) == 0 {
		return badActionResponse
	}
	for _, act := range a.freshActions(actions) {
		act.From = p.ID
		a.handleAction(p.ID, act)
	}
	p.mu.Lock()
	p.LastSeen = time.Now()
	p.mu.Unlock()
	a.actionPushes.Add(1)
	return actionAckResponse
}

// ActionPushes reports how many /action upstream requests were accepted.
func (a *Agent) ActionPushes() int64 { return a.actionPushes.Load() }

// pollSetup parses a polling request and runs steps 1 and 2 of §4.1.1:
// participant lookup, data merging, and timestamp bookkeeping. It returns
// the participant, the timestamp it reported, the requested long-poll hang
// (0 = answer immediately), and whether the client opted into deltaContent
// responses — or a non-nil error response.
func (a *Agent) pollSetup(req *httpwire.Request) (*participantState, int64, time.Duration, bool, *httpwire.Response) {
	pid := pidFromRequest(req)
	fields := httpwire.ParseForm(string(req.Body))
	var ts, waitMS int64
	var deltaOK bool
	var actionPayload string
	for _, f := range fields {
		switch f.Name {
		case "ts":
			ts, _ = strconv.ParseInt(f.Value, 10, 64)
		case "actions":
			actionPayload = f.Value
		case "wait":
			waitMS, _ = strconv.ParseInt(f.Value, 10, 64)
		case "delta":
			deltaOK = f.Value == "1"
		case "pid":
			if pid == "" {
				pid = f.Value
			}
		}
	}
	p := a.participant(pid)
	if p == nil {
		return nil, 0, 0, false, a.disconnectedResponse(pid)
	}

	// Step 1: data merging. The replay filter runs first so a retried
	// upstream (push fallback, rejoin re-send) merges each action once.
	actions, err := DecodeActions(actionPayload)
	if err != nil {
		return nil, 0, 0, false, badActionResponse
	}
	actions = a.freshActions(actions)
	for _, act := range actions {
		act.From = p.ID
		a.handleAction(p.ID, act)
	}

	// Step 2: timestamp inspection. Only this participant's lock is taken;
	// polls from other participants proceed in parallel.
	p.mu.Lock()
	p.LastDocTime = ts
	p.LastSeen = time.Now()
	p.Polls++
	p.mu.Unlock()

	wait := time.Duration(waitMS) * time.Millisecond
	if max := a.maxPollWait(); wait > max {
		wait = max
	}
	if len(actions) > 0 {
		// A poll that delivered actions is answered immediately, never
		// parked: the prompt completion is the client's acknowledgment
		// that its actions were merged. (Our own snippet already strips
		// the wait field from action-carrying polls; this guards foreign
		// clients that don't.)
		wait = 0
	}
	return p, ts, wait, deltaOK, nil
}

// deliverOut is one delivery decision from deliver: the payload bytes to
// send, the docTime the recipient holds after applying them, and whether
// the payload is a deltaContent script. resp is the shared prepared response
// when the payload is reusable as-is (no per-participant splice) — the poll
// path sends it without allocating; the channel path only needs body. The
// drained outbox actions ride along so a failed channel write can requeue
// them instead of dropping mirror traffic on the floor. A recipient that
// opted into deltas is served the shared deltaContent script for whichever
// delta-base ring member it acknowledges — one encoded response per (base,
// target) pair, fanned to every poller and channel on that pair.
type deliverOut struct {
	resp    *httpwire.Response
	body    []byte
	docTime int64
	isDelta bool
	hasNew  bool
	actions []Action
}

// deliver runs step 3 of §4.1.1 — response sending — for one participant,
// shared by the poll path and the persistent-channel writer. The prepared
// message bytes are shared across participants; pending mirror actions are
// spliced in without re-rendering the document payload, and the no-action
// fast path reuses the prepared response object as-is. A recipient that
// opted into deltas and acknowledges the docTime of any build still in the
// delta-base ring gets the shared deltaContent script instead of the full
// snapshot; every fallback case (first delivery, base off the ring,
// oversized or unavailable delta) degrades to the snapshot. hasNew is false exactly when there is nothing
// to send: the state a long-poll parks on and a channel writer sleeps on.
func (a *Agent) deliver(p *participantState, ts int64, deltaOK bool) (deliverOut, error) {
	p.mu.Lock()
	mode := p.CacheMode
	outbox := p.outbox
	p.outbox = nil
	p.mu.Unlock()
	if len(outbox) > 0 {
		a.outboxDepth.Add(-int64(len(outbox)))
	}

	prep, err := a.contentForMode(mode)
	if err != nil {
		return deliverOut{actions: outbox}, err
	}
	if prep != nil && ts > prep.docTime {
		// The participant acknowledges a docTime this agent never issued:
		// it was talking to a newer incarnation than the checkpoint this
		// one restored from. Treat it as a first poll so it resyncs with
		// the full snapshot instead of parking forever on a stale clock.
		ts = 0
	}
	if prep != nil && prep.docTime > ts {
		// ts == 0 is a first delivery: the participant has no base to patch.
		// The shed ladder's first step turns deltas off — the full snapshot
		// costs bandwidth but releases the retained delta-base ring.
		if deltaOK && !a.DisableDelta && ts > 0 && a.ShedLevel() < ShedNoDelta {
			if d := a.deltaFor(mode, ts, prep); d != nil {
				a.deltasServed.Add(1)
				if len(outbox) == 0 {
					return deliverOut{resp: d.resp, body: d.xml, docTime: d.docTime, isDelta: true, hasNew: true}, nil
				}
				return deliverOut{body: d.WithUserActions(outbox), docTime: d.docTime, isDelta: true, hasNew: true, actions: outbox}, nil
			}
		}
		if len(outbox) == 0 {
			prep.marshal()
			return deliverOut{resp: prep.resp, body: prep.xml, docTime: prep.docTime, hasNew: true}, nil
		}
		return deliverOut{body: prep.WithUserActions(outbox), docTime: prep.docTime, hasNew: true, actions: outbox}, nil
	}
	if len(outbox) > 0 {
		nc := &NewContent{DocTime: ts, UserActions: outbox}
		return deliverOut{body: nc.Marshal(), docTime: ts, hasNew: true, actions: outbox}, nil
	}
	return deliverOut{docTime: ts}, nil
}

// pollResponse adapts deliver to the HTTP poll path. hasNew is false exactly
// when the response is the shared empty message: the state a long-poll parks
// on instead of answering.
func (a *Agent) pollResponse(p *participantState, ts int64, deltaOK bool) (resp *httpwire.Response, hasNew bool) {
	out, err := a.deliver(p, ts, deltaOK)
	if err != nil {
		a.logf("rcb-agent: content generation: %v", err)
		return httpwire.NewResponse(500, "text/plain", []byte("content generation failed\n")), true
	}
	if !out.hasNew {
		// "If RCB-Agent indicates no new content with an empty response
		// content, Ajax-Snippet simply ... send[s] a new polling request
		// after a specified time interval." All empty polls share one
		// immutable response object.
		return emptyPollResponse, false
	}
	if out.resp != nil {
		return out.resp, true
	}
	return httpwire.NewResponse(200, "application/xml", out.body), true
}

// Shared immutable responses for the poll hot path; they must never be
// mutated by a caller.
var (
	// emptyPollResponse answers every no-new-content poll.
	emptyPollResponse = httpwire.NewResponse(200, "application/xml", nil)
	// agentClosingPollResponse completes parked polls when the agent shuts
	// down: still the §4.1.1 empty response (no error — the poll succeeded),
	// but marked AgentClosing so the snippet backs off before re-polling.
	agentClosingPollResponse = func() *httpwire.Response {
		r := httpwire.NewResponse(200, "application/xml", nil)
		r.Header.Set(CloseReasonHeader, CloseAgentClosing.String())
		return r
	}()
	// badActionResponse answers polls whose piggybacked actions fail to
	// decode.
	badActionResponse = httpwire.NewResponse(400, "text/plain", []byte("bad action payload\n"))
	// badHMACResponse answers requests that fail §3.4 authentication.
	badHMACResponse = httpwire.NewResponse(401, "text/plain", []byte("bad hmac\n"))
	// actionAckResponse acknowledges an accepted /action upstream request.
	actionAckResponse = httpwire.NewResponse(200, "application/xml", nil)
)

// disconnectedResponse answers a request from a pid the agent has no record
// of, carrying the close reason when the disconnect is recent enough to
// remember (CloseUnknown otherwise — e.g. the agent restarted).
func (a *Agent) disconnectedResponse(pid string) *httpwire.Response {
	return closeResponse(a.closeReasonFor(pid))
}

// closeReasonFor looks up why pid was disconnected.
func (a *Agent) closeReasonFor(pid string) CloseReason {
	a.pmu.RLock()
	r := a.closedReasons[pid]
	a.pmu.RUnlock()
	if r == CloseNone {
		return CloseUnknown
	}
	return r
}

// joinRefusedResponse is the SessionFull refusal with the retry hint.
func (a *Agent) joinRefusedResponse() *httpwire.Response {
	resp := closeResponse(CloseSessionFull)
	resp.Header.Set(RetryAfterHeader, strconv.FormatInt(a.shedRetryAfter().Milliseconds(), 10))
	return resp
}

// pidFromRequest extracts the rcbpid cookie, scanning the header in place —
// no per-poll slice allocation.
func pidFromRequest(req *httpwire.Request) string {
	cookie := req.Header.Get("Cookie")
	for cookie != "" {
		var part string
		part, cookie, _ = strings.Cut(cookie, ";")
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if ok && k == "rcbpid" {
			return v
		}
	}
	return ""
}

func (a *Agent) participant(pid string) *participantState {
	a.pmu.RLock()
	defer a.pmu.RUnlock()
	return a.participants[pid]
}

// Participants lists connected participants — "RCB-Agent knows exactly
// which participants are connected, and it can notify this information to a
// co-browsing host or participant" (§3.3).
func (a *Agent) Participants() []Participant {
	a.pmu.RLock()
	defer a.pmu.RUnlock()
	out := make([]Participant, 0, len(a.participants))
	for _, p := range a.participants {
		p.mu.Lock()
		out = append(out, p.Participant)
		p.mu.Unlock()
	}
	return out
}

// SetParticipantMode switches one participant between cache and non-cache
// mode ("RCB-Agent can allow different participant browsers to use
// different modes", §4.1.2).
func (a *Agent) SetParticipantMode(pid string, cacheMode bool) error {
	p := a.participant(pid)
	if p == nil {
		return fmt.Errorf("rcb-agent: no participant %s", pid)
	}
	p.mu.Lock()
	p.CacheMode = cacheMode
	p.mu.Unlock()
	return nil
}

// Disconnect removes a participant (leave at any time, §3.3). A long-poll
// the participant has parked wakes immediately and completes with the same
// 403 a live poll from an unknown participant gets — now carrying the
// Leave close reason — so the client learns of the disconnect without
// waiting out the hang.
func (a *Agent) Disconnect(pid string) { a.DisconnectWith(pid, CloseLeave) }

// Kick ejects a participant by host decision. Unlike Leave-class removals
// the reason is non-retryable: the snippet must not rejoin.
func (a *Agent) Kick(pid string) { a.DisconnectWith(pid, CloseKicked) }

// DisconnectWith removes a participant recording why, so the participant's
// next request (or its parked long-poll, woken immediately) answers with
// the reason instead of a bare 403. rememberedCloses bounds the memory.
func (a *Agent) DisconnectWith(pid string, reason CloseReason) {
	if reason == CloseNone {
		reason = CloseLeave
	}
	a.pmu.Lock()
	p := a.participants[pid]
	delete(a.participants, pid)
	if p != nil {
		if len(a.closedOrder) >= rememberedCloses {
			delete(a.closedReasons, a.closedOrder[0])
			a.closedOrder = a.closedOrder[1:]
		}
		if _, known := a.closedReasons[pid]; !known {
			a.closedOrder = append(a.closedOrder, pid)
		}
		a.closedReasons[pid] = reason
	}
	a.pmu.Unlock()
	if p != nil {
		p.mu.Lock()
		dropped := len(p.outbox)
		p.outbox = nil
		p.mu.Unlock()
		if dropped > 0 {
			a.outboxDepth.Add(-int64(dropped))
		}
		a.logf("rcb-agent: participant %s disconnected: %s", pid, reason)
	}
	a.hub.notifyPID(pid)
	// A live channel learns of the disconnect the same way a parked poll
	// does: immediately, with the reason on the wire (a close frame here).
	a.closeChannel(pid, closeSignal{reason: reason})
}

// rememberedCloses bounds the disconnect-reason memory.
const rememberedCloses = 1024

// JoinRefusals reports connection requests refused by admission control or
// the shed ladder.
func (a *Agent) JoinRefusals() int64 { return a.joinRefusals.Load() }

// ParkRefusals reports long-polls answered immediately because of the
// parked-poll cap or the shed ladder.
func (a *Agent) ParkRefusals() int64 { return a.parkRefusals.Load() }

// StaleKicks reports participants disconnected as stale readers (ack lag or
// park age).
func (a *Agent) StaleKicks() int64 { return a.staleKicks.Load() }

// DuplicateActions reports actions dropped by the replay filter.
func (a *Agent) DuplicateActions() int64 { return a.duplicateActions.Load() }

// OutboxDepth reports the total queued mirror actions across participants —
// one of the shed ladder's load signals.
func (a *Agent) OutboxDepth() int64 { return a.outboxDepth.Load() }

// ContentBuilds reports how many times the Figure 3 pipeline has executed —
// with the single-flight guard this advances once per (document version,
// mode) no matter how many participants poll concurrently.
func (a *Agent) ContentBuilds() int64 { return a.builds.Load() }

// ParticipantCount reports how many participants are connected without
// copying the roster — Participants allocates one record per participant,
// which a scale harness polling the count at 4k participants cannot afford.
func (a *Agent) ParticipantCount() int {
	a.pmu.RLock()
	defer a.pmu.RUnlock()
	return len(a.participants)
}

// LatestDocTime reports the docTime of the newest prepared build across
// modes (0 before any build). Scale harnesses use it to map a host mutation
// to the docTime participants must reach, without re-rendering content.
func (a *Agent) LatestDocTime() int64 {
	a.cmu.Lock()
	defer a.cmu.Unlock()
	var latest int64
	for _, prep := range a.prepared {
		if prep != nil && prep.docTime > latest {
			latest = prep.docTime
		}
	}
	return latest
}

// contentForMode returns the prepared content for a mode, regenerating when
// the host document changed. Returns nil when no page is loaded yet.
//
// Generation is single-flight: the first poll to observe a new version runs
// BuildContent; concurrent polls for the same mode block on that execution
// and share its result instead of redundantly re-running the pipeline.
func (a *Agent) contentForMode(cacheMode bool) (*PreparedContent, error) {
	version := a.Browser.Version()
	if version == 0 {
		return nil, nil
	}
	a.cmu.Lock()
	// >= rather than ==: a poll that read the version before a concurrent
	// bump stored newer content must take the cache, not rebuild it.
	if prep := a.prepared[cacheMode]; prep != nil && prep.version >= version {
		a.cmu.Unlock()
		return prep, nil
	}
	if call := a.inflight[cacheMode]; call != nil && call.version >= version {
		a.cmu.Unlock()
		<-call.done
		return call.prep, call.err
	}
	call := &contentCall{version: version, done: make(chan struct{})}
	a.inflight[cacheMode] = call
	a.cmu.Unlock()

	prep, err := a.BuildContent(cacheMode)
	a.cmu.Lock()
	var lagFloor int64
	if err == nil {
		if cur := a.prepared[cacheMode]; cur == nil || prep.version >= cur.version {
			if cur != nil && prep.version > cur.version {
				if !a.DisableDelta && a.ShedLevel() < ShedNoDelta {
					// The replaced build joins the front of the delta-base
					// ring (newest first), capped at the configured depth;
					// every cached delta script targeted an old pair and is
					// stale. With deltas off nothing consumes the bases, so
					// don't multiply the retained payload.
					depth := a.deltaRingDepth()
					ring := a.prevRing[cacheMode]
					grown := make([]*PreparedContent, 0, min(len(ring)+1, depth))
					grown = append(grown, cur)
					for _, b := range ring {
						if len(grown) >= depth {
							break
						}
						grown = append(grown, b)
					}
					a.prevRing[cacheMode] = grown
					delete(a.delta, cacheMode)
				} else if len(a.prevRing[cacheMode]) > 0 || len(a.delta[cacheMode]) > 0 {
					// Deltas are off — statically or because the shed ladder
					// climbed to ShedNoDelta. Rotating would hoard the very
					// memory the ladder rung exists to free, so release the
					// ring instead and keep it empty until deltas return.
					delete(a.prevRing, cacheMode)
					delete(a.delta, cacheMode)
				}
			}
			a.prepared[cacheMode] = prep
			// Record the build for the stale-reader ruler and compute the
			// oldest docTime a reader may still acknowledge.
			hist := append(a.buildHist[cacheMode], prep.docTime)
			if len(hist) > maxBuildHist {
				hist = hist[len(hist)-maxBuildHist:]
			}
			a.buildHist[cacheMode] = hist
			if a.MaxAckLag > 0 && len(hist) > a.MaxAckLag {
				lagFloor = hist[len(hist)-1-a.MaxAckLag]
			}
		}
	}
	if a.inflight[cacheMode] == call {
		delete(a.inflight, cacheMode)
	}
	a.cmu.Unlock()
	if lagFloor > 0 {
		a.reapStaleReaders(cacheMode, lagFloor)
	}
	call.prep, call.err = prep, err
	close(call.done)
	return prep, err
}

// reapStaleReaders disconnects (StaleReader) every cacheMode-matching
// participant whose acknowledged docTime has fallen behind lagFloor — the
// docTime of the build MaxAckLag versions back. A reader that far behind is
// consuming outbox memory and wake fan-outs without keeping up; kicking it
// with a retryable reason converts it into a fresh full-snapshot join.
// Participants that never polled (LastDocTime 0) are exempt: they have no
// lag yet, only latency.
func (a *Agent) reapStaleReaders(cacheMode bool, lagFloor int64) {
	var stale []string
	a.pmu.RLock()
	for pid, p := range a.participants {
		p.mu.Lock()
		lagging := p.CacheMode == cacheMode && p.LastDocTime > 0 && p.LastDocTime < lagFloor
		p.mu.Unlock()
		if lagging {
			stale = append(stale, pid)
		}
	}
	a.pmu.RUnlock()
	for _, pid := range stale {
		a.staleKicks.Add(1)
		a.DisconnectWith(pid, CloseStaleReader)
	}
}

// BuildContent runs the Figure 3 generation pipeline against the host's
// live document and returns the prepared message; its Figure 4 snapshot is
// marshaled on first demand. Exported so the experiment harness can
// measure M5 (content generation time, GenTime) directly.
func (a *Agent) BuildContent(cacheMode bool) (*PreparedContent, error) {
	a.builds.Add(1)
	version := a.Browser.Version()
	start := time.Now()
	var nc *NewContent
	err := a.Browser.WithDocument(func(pageURL string, doc *dom.Document) error {
		docTime := a.nextDocTime()
		nc = generateContent(doc.Root, contentOptions{
			pageURL:     pageURL,
			docTime:     docTime,
			cacheMode:   cacheMode,
			resolveRef:  hostResolver(a.Browser, pageURL),
			cacheHas:    a.Browser.Cache.Has,
			agentURLFor: a.registerObject,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PreparedContent{
		version:     version,
		docTime:     nc.DocTime,
		content:     nc,
		extractTime: time.Since(start),
	}, nil
}

// DiffBuilds reports how many delta scripts have been computed — with the
// delta single-flight guard this advances once per (base, target, mode)
// pair no matter how many delta-eligible polls race on it.
func (a *Agent) DiffBuilds() int64 { return a.diffBuilds.Load() }

// DeltasServed reports how many polls were answered with a deltaContent
// message instead of the full snapshot.
func (a *Agent) DeltasServed() int64 { return a.deltasServed.Load() }

// deltaFor returns the shared delta response for a poll acknowledging base,
// or nil when the poll must fall back to the full snapshot. A delta exists
// between any delta-base ring member and the current build; each (base,
// target) pair's computation is single-flight, and a "not worth it" outcome
// (oversized script, top-level region change) is cached so the diff runs
// once per pair no matter how many mixed-base polls race on it.
func (a *Agent) deltaFor(cacheMode bool, base int64, prep *PreparedContent) *preparedDelta {
	a.cmu.Lock()
	var prev *PreparedContent
	for _, cand := range a.prevRing[cacheMode] {
		if cand.docTime == base {
			prev = cand
			break
		}
	}
	if prev == nil || prep.content == nil || prev.content == nil {
		a.cmu.Unlock()
		return nil // base not retained: fell off the ring, or agent restarted
	}
	if e := a.delta[cacheMode][base]; e != nil && e.target == prep.docTime {
		a.cmu.Unlock()
		return e.d
	}
	if call := a.deltaInflight[cacheMode][base]; call != nil && call.target == prep.docTime {
		a.cmu.Unlock()
		<-call.done
		return call.d
	}
	call := &deltaCall{base: base, target: prep.docTime, done: make(chan struct{})}
	if a.deltaInflight[cacheMode] == nil {
		a.deltaInflight[cacheMode] = make(map[int64]*deltaCall)
	}
	a.deltaInflight[cacheMode][base] = call
	a.cmu.Unlock()

	d := a.buildDelta(prev, prep)
	a.cmu.Lock()
	// Store only while still the registered call: a version rotation during
	// the diff may have started a newer pair's computation on this base, and
	// a stale (base, target) entry must not clobber its fresh cached result.
	if a.deltaInflight[cacheMode][base] == call {
		if a.delta[cacheMode] == nil {
			a.delta[cacheMode] = make(map[int64]*deltaEntry)
		}
		a.delta[cacheMode][base] = &deltaEntry{base: call.base, target: call.target, d: d}
		delete(a.deltaInflight[cacheMode], base)
	}
	a.cmu.Unlock()
	call.d = d
	close(call.done)
	return d
}

// DeltaBasesRetained reports how many replaced builds are currently held as
// delta bases across all modes — the memory the ShedNoDelta rung releases.
func (a *Agent) DeltaBasesRetained() int {
	a.cmu.Lock()
	defer a.cmu.Unlock()
	n := 0
	for _, ring := range a.prevRing {
		n += len(ring)
	}
	return n
}

// releaseDeltaState drops the delta-base ring, the cached delta scripts, and
// any in-flight registrations. Called when the shed ladder climbs to
// ShedNoDelta: deliver stops serving deltas at that rung, so the retained
// builds are pure memory pressure. In-flight diffs finish and hand their
// waiters a result, but the cleared registration keeps them from re-caching.
func (a *Agent) releaseDeltaState() {
	a.cmu.Lock()
	clear(a.prevRing)
	clear(a.delta)
	clear(a.deltaInflight)
	a.cmu.Unlock()
}

// warmWakeDeltas is the delivery hub's preWake hook: it runs on the trailing
// edge of a debounced wake, after the parked waiters are collected but
// before fan-out. It gathers the distinct (mode, acked docTime) pairs of the
// woken waiters and of every attached channel, and computes those deltas
// once — so a thousand-strong fleet hits a warm cache instead of racing all
// its polls on the first diff of each pair.
func (a *Agent) warmWakeDeltas(woken []*pollWaiter) {
	if a.DisableDelta || a.ShedLevel() >= ShedNoDelta {
		return
	}
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		return
	}
	type pair struct {
		mode bool
		base int64
	}
	want := make(map[pair]struct{})
	for _, w := range woken {
		if !w.deltaOK || w.ts <= 0 {
			continue
		}
		if p := a.participant(w.pid); p != nil {
			p.mu.Lock()
			mode := p.CacheMode
			p.mu.Unlock()
			want[pair{mode, w.ts}] = struct{}{}
		}
	}
	a.chmu.Lock()
	chans := make([]*agentChannel, 0, len(a.channels))
	for _, ch := range a.channels {
		if ch.deltaOK {
			chans = append(chans, ch)
		}
	}
	a.chmu.Unlock()
	for _, ch := range chans {
		ch.mu.Lock()
		base := ch.base
		ch.mu.Unlock()
		if base <= 0 {
			continue
		}
		if p := a.participant(ch.pid); p != nil {
			p.mu.Lock()
			mode := p.CacheMode
			p.mu.Unlock()
			want[pair{mode, base}] = struct{}{}
		}
	}
	for k := range want {
		prep, err := a.contentForMode(k.mode)
		if err != nil || prep == nil || prep.docTime <= k.base {
			continue
		}
		a.deltaFor(k.mode, k.base, prep)
	}
}

// deltaRegionTags are the top-level regions a delta can patch.
var deltaRegionTags = [...]string{"body", "frameset", "noframes"}

// buildDelta computes and encodes the edit script between two consecutive
// builds. Diffs run between the builds' participant-equivalent trees (see
// participantTree), never the live clones, so patch paths resolve on what
// participants actually hold. It returns nil when no worthwhile delta
// exists: the top-level region set changed (the snippet's cleanup step
// handles that transition on the full path), or the encoded message is not
// smaller than the full snapshot.
func (a *Agent) buildDelta(prev, cur *PreparedContent) *preparedDelta {
	a.diffBuilds.Add(1)
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

// nextDocTime issues the timestamp for a document version: wall-clock
// milliseconds (as the paper specifies) made strictly monotonic so rapid
// successive versions remain distinguishable.
func (a *Agent) nextDocTime() int64 {
	a.tmu.Lock()
	defer a.tmu.Unlock()
	t := time.Now().UnixMilli()
	if t <= a.lastDocTime {
		t = a.lastDocTime + 1
	}
	a.lastDocTime = t
	return t
}

// registerObject maps an absolute URL into the agent's object namespace and
// returns the full agent URL for it. When authentication is on, the URL is
// pre-signed: object fetches are issued by the participant browser's
// renderer, which cannot compute MACs itself. Signing happens outside the
// table lock — HMAC cost must not serialize other registrations.
func (a *Agent) registerObject(absURL string) string {
	a.omu.Lock()
	path, ok := a.tokens[absURL]
	if !ok {
		buf := make([]byte, 0, 20)
		buf = append(buf, "/obj/t"...)
		buf = strconv.AppendInt(buf, int64(len(a.tokens)+1), 10)
		path = string(buf)
		a.tokens[absURL] = path
		a.mapping[path] = absURL
	}
	a.omu.Unlock()
	target := path
	if a.Auth != nil {
		target = a.Auth.Sign("GET", path, nil)
	}
	return a.URL() + target
}

// MappingLen reports the size of the object mapping table.
func (a *Agent) MappingLen() int {
	a.omu.Lock()
	defer a.omu.Unlock()
	return len(a.mapping)
}

// handleAction routes one participant action through the policy.
func (a *Agent) handleAction(pid string, act Action) {
	a.amu.Lock()
	a.actionSeq++
	act.Seq = a.actionSeq
	a.amu.Unlock()

	switch a.Policy.Decide(pid, act) {
	case Deny:
		a.logf("rcb-agent: denied %s", act)
	case Confirm:
		a.amu.Lock()
		a.pending = append(a.pending, PendingAction{Seq: act.Seq, ParticipantID: pid, Action: act})
		a.amu.Unlock()
		a.logf("rcb-agent: queued for confirmation: %s", act)
	case Apply:
		if err := a.ApplyAction(act); err != nil {
			a.logf("rcb-agent: apply %s: %v", act, err)
		}
	}
}

// PendingConfirmations lists actions awaiting host approval.
func (a *Agent) PendingConfirmations() []PendingAction {
	a.amu.Lock()
	defer a.amu.Unlock()
	return append([]PendingAction(nil), a.pending...)
}

// Confirm resolves a queued action by sequence number: approved actions are
// applied, rejected ones dropped.
func (a *Agent) Confirm(seq int64, approve bool) error {
	a.amu.Lock()
	idx := -1
	for i, pa := range a.pending {
		if pa.Seq == seq {
			idx = i
			break
		}
	}
	if idx < 0 {
		a.amu.Unlock()
		return fmt.Errorf("rcb-agent: no pending action %d", seq)
	}
	pa := a.pending[idx]
	a.pending = append(a.pending[:idx], a.pending[idx+1:]...)
	a.amu.Unlock()
	if !approve {
		a.logf("rcb-agent: rejected %s", pa.Action)
		return nil
	}
	return a.ApplyAction(pa.Action)
}

// ApplyAction performs an action on the host browser: clicks navigate or
// submit, form data merges into the live DOM, pointer and scroll actions
// mirror to the other users.
func (a *Agent) ApplyAction(act Action) error {
	switch act.Kind {
	case ActionMouseMove, ActionScroll:
		a.Broadcast(act)
		return nil
	case ActionFormInput:
		return a.Browser.ApplyMutation(func(doc *dom.Document) error {
			el := ResolvePath(doc.Root, act.Target)
			if el == nil {
				return fmt.Errorf("stale target %q", act.Target)
			}
			if el.Tag == "textarea" {
				el.ReplaceChildren(dom.NewText(act.Value))
			} else {
				el.SetAttr("value", act.Value)
			}
			return nil
		})
	case ActionFormSubmit:
		values := make(map[string]string, len(act.Fields))
		for _, f := range act.Fields {
			values[f.Name] = f.Value
		}
		var form *dom.Node
		err := a.Browser.ApplyMutation(func(doc *dom.Document) error {
			form = ResolvePath(doc.Root, act.Target)
			if form == nil || form.Tag != "form" {
				return fmt.Errorf("stale form target %q", act.Target)
			}
			if mergeFormData(form, values) == 0 {
				a.logf("rcb-agent: formsubmit %s matched no fields", fmtPath(form))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if a.AutoSubmitForms {
			_, err = a.Browser.SubmitForm(form, act.Fields)
		}
		return err
	case ActionClick:
		return a.applyClick(act)
	default:
		return fmt.Errorf("rcb-agent: unknown action kind %q", act.Kind)
	}
}

// applyClick performs a participant's click on the host browser: links
// navigate (the participant's "browsing requests ... first sent back to the
// RCB-Agent on Bob's browser and then sent out" §5.2.2); submit buttons
// submit their enclosing form with the values currently in the DOM.
func (a *Agent) applyClick(act Action) error {
	var href string
	var form *dom.Node
	err := a.Browser.WithDocument(func(pageURL string, doc *dom.Document) error {
		el := ResolvePath(doc.Root, act.Target)
		if el == nil {
			return fmt.Errorf("stale click target %q", act.Target)
		}
		switch el.Tag {
		case "a":
			ref := el.AttrOr("href", "")
			if ref == "" || ref == "#" {
				return nil
			}
			abs, err := browser.Resolve(pageURL, ref)
			if err != nil {
				return err
			}
			href = abs
		case "input", "button":
			for cur := el; cur != nil; cur = cur.Parent {
				if cur.Tag == "form" {
					form = cur
					break
				}
			}
			if form == nil {
				return fmt.Errorf("click target %q is not inside a form", act.Target)
			}
		default:
			return fmt.Errorf("unsupported click target <%s>", el.Tag)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if href != "" {
		_, err := a.Browser.Navigate(href)
		return err
	}
	if form != nil {
		vals := formValues(form)
		fields := make([]httpwire.FormField, len(vals))
		for i, v := range vals {
			fields[i] = httpwire.FormField{Name: v.Name, Value: v.Value}
		}
		_, err := a.Browser.SubmitForm(form, fields)
		return err
	}
	return nil
}

// Broadcast queues an action for delivery to every participant except its
// originator — pointer mirroring (paper step 9). The participant table is
// only read-locked; each outbox append takes that participant's own lock,
// then wakes any long-poll that participant has parked so mirror actions
// push out immediately instead of riding the next interval.
func (a *Agent) Broadcast(act Action) {
	a.pmu.RLock()
	for _, p := range a.participants {
		if p.ID == act.From {
			continue
		}
		p.mu.Lock()
		before := len(p.outbox)
		p.outbox = append(p.outbox, act)
		if len(p.outbox) > maxOutbox {
			p.outbox = p.outbox[len(p.outbox)-maxOutbox:]
		}
		after := len(p.outbox)
		p.mu.Unlock()
		if d := after - before; d != 0 {
			a.outboxDepth.Add(int64(d))
		}
		a.hub.notifyPID(p.ID)
		a.notifyChannel(p.ID)
	}
	a.pmu.RUnlock()
	a.maybeEvalLoad()
}

// HostAction reports a host-side interaction (pointer move, scroll) for
// mirroring to all participants.
func (a *Agent) HostAction(act Action) {
	act.From = "host"
	a.Broadcast(act)
}
