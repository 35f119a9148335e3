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

// PendingAction is a participant action awaiting host confirmation under a
// moderating policy.
type PendingAction struct {
	Seq           int64
	ParticipantID string
	Action        Action
}

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
// Internal state is split into parts that each contend only with
// themselves, so the serve path scales with participant count: the session
// table (session.go: the roster under a read-mostly RWMutex plus
// per-participant locks, and the replay filter under its own), the content
// pipeline (pipeline.go: build cache and object table), the delivery hub
// (delivery.go), and the agent's own three locks — amu for the moderation
// queue, smu the serve/state barrier, hmu the handover receiver.
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
	// MaxPollWait caps how long a long-poll may park, whatever the client
	// requested; zero means DefaultMaxPollWait. A parked poll that reaches
	// the cap completes with the empty response — the §4.1.1 degradation,
	// so a long-poll participant is never worse off than an interval one.
	MaxPollWait time.Duration
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
	// Logf, when non-nil, receives diagnostics.
	Logf func(format string, args ...any)

	// sessions is the roster, the mirror queues, the close-reason memory
	// and the replay filter (session.go).
	sessions *sessionTable

	// amu guards the moderation queue and action sequencing.
	amu       sync.Mutex
	pending   []PendingAction
	actionSeq int64

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

	// hub holds every delivery subscriber — parked long-polls and attached
	// channels — and wakes them on document changes, outbox enqueues,
	// disconnects, and shutdown.
	hub *deliveryHub

	// pipeline builds, caches and diffs the content polls are answered
	// with (pipeline.go).
	pipeline *contentPipeline

	// warming is set while a join's snapshot warm runs (warmSnapshot), so
	// a burst of joins starts one.
	warming atomic.Bool
	// deltasServed counts polls answered with a deltaContent message.
	deltasServed atomic.Int64

	// Persistent-channel observables (channel.go): frames in each
	// direction, and upgrades refused or channels closed toward the
	// degradation ladder.
	framesOut        atomic.Int64
	framesIn         atomic.Int64
	channelFallbacks atomic.Int64

	// Overload-control observables: every admission or degradation decision
	// advances a counter.
	joinRefusals atomic.Int64 // joins refused (cap or shed ladder)
	parkRefusals atomic.Int64 // long-polls answered immediately (cap or shed ladder)
	staleKicks   atomic.Int64 // participants disconnected as StaleReader

	// shed holds the load-shedding ladder state (overload.go).
	shed shedState
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
		Browser:  b,
		Addr:     addr,
		Policy:   OpenPolicy(),
		sessions: newSessionTable(),
		hub:      newDeliveryHub(),
	}
	a.pipeline = newContentPipeline(b, a.objectURL, a.deltasOn)
	// Every wake round has the whole woken fleet in hand before answering
	// it — the place the content and deltas the fleet is about to ask for
	// are computed once.
	a.hub.preWake = a.warmWakeDeltas
	b.OnChange(a.hub.notifyAll)
	return a
}

// Close releases the delivery hub and the persistent channels: every parked
// long-poll completes with the empty response, every open channel receives
// an AGENT_CLOSING close frame, and later polls answer immediately,
// interval-style. The agent remains usable afterwards — Close only retires
// the push channels, typically just before the enclosing httpwire.Server
// closes.
func (a *Agent) Close() { a.hub.close() }

// ParkedPolls reports how many long-polls are currently parked — the
// observable fan-out tests and benchmarks synchronize on.
func (a *Agent) ParkedPolls() int {
	n, _ := a.hub.counts()
	return n
}

// WakeFanouts reports how many document-change wake rounds actually woke
// parked polls: one per change that finds any poll parked.
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
// not have: the persistent-channel upgrade (POST /channel, channel.go) and
// the agent-to-agent handover handshake (POST /handover/*, handover.go).
func (a *Agent) ServeWire(req *httpwire.Request) *httpwire.Response {
	if req.Method == "POST" && strings.HasPrefix(req.Path(), "/handover/") {
		// The handshake manages the state barrier itself (the state step
		// takes the write side) and must stay reachable on a relocated agent so
		// chained migrations work.
		if errResp := a.verifyAuth(req); errResp != nil {
			return errResp
		}
		return a.serveHandover(req)
	}
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		return a.movedSignal().response()
	}
	var serve func(*Agent, *httpwire.Request) *httpwire.Response
	switch {
	case req.Method == "GET" && req.Path() == "/":
		return a.serveInitialPage(req)
	case req.Method == "POST" && req.Path() == "/poll":
		serve = (*Agent).servePoll
	case req.Method == "POST" && req.Path() == "/channel":
		serve = (*Agent).serveChannelUpgrade
	case req.Method == "GET":
		serve = (*Agent).serveObject
	default:
		return httpwire.NewResponse(405, "text/plain", []byte("method not allowed\n"))
	}
	// Every route but the join is authenticated (§3.4).
	if errResp := a.verifyAuth(req); errResp != nil {
		return errResp
	}
	return serve(a, req)
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
	mode := a.DefaultCacheMode
	// A transfer mid-flight refuses too: admitting a participant now would
	// split the session between the incoming state and this join.
	pid, ok := "", a.ShedLevel() < ShedRefuseJoins && !a.handoverPending()
	if ok {
		pid, ok = a.sessions.join(mode, a.MaxParticipants)
	}
	if !ok {
		a.joinRefusals.Add(1)
		return closeSignal{reason: CloseSessionFull, retry: a.shedRetryAfter()}.response()
	}
	a.logf("rcb-agent: participant %s connected (cache mode %v)", pid, mode)
	a.warmSnapshot(mode)

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

// warmSnapshot starts the Figure 4 marshal a new participant's first poll
// will need, while the initial page travels to it and the snippet starts:
// the build for mode and its lazy snapshot, both single-flight, so the first
// poll waits only for what is left of them. One warm runs at a time per
// agent; a join arriving while it runs starts none. The warm is wasted only
// when the document changes before the first poll arrives.
func (a *Agent) warmSnapshot(cacheMode bool) {
	if !a.warming.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer a.warming.Store(false)
		// The serve/state barrier, as for a poll: no warm runs while a
		// checkpoint or handover fence holds the session still.
		a.smu.RLock()
		defer a.smu.RUnlock()
		if a.relocatedTo != "" {
			return
		}
		if prep, err := a.pipeline.forMode(cacheMode); err == nil && prep != nil {
			prep.marshal()
		}
	}()
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
	absURL, ok := a.pipeline.object(target)
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
// callback and may be invoked later from a hub wake round, which answers
// its waiters one after another: respond must hand the response off without
// blocking (see httpwire.AsyncHandler).
func (a *Agent) ServeWireAsync(req *httpwire.Request, respond func(*httpwire.Response)) {
	if req.Method != "POST" || req.Path() != "/poll" {
		// Everything but a poll answers inline.
		respond(a.ServeWire(req))
		return
	}
	// The barrier read lock covers the synchronous extent of the poll —
	// merge, park registration — but not the parked wait itself; a poll
	// woken later re-enters through wakePoll, which takes its own RLock.
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		respond(a.movedSignal().response())
		return
	}
	if errResp := a.verifyAuth(req); errResp != nil {
		respond(errResp)
		return
	}
	p, f, errResp := a.pollSetup(req)
	if errResp != nil {
		respond(errResp)
		return
	}
	ts, wait, deltaOK := f.ts, f.wait, f.deltaOK
	a.maybeEvalLoad()
	// Overload enforcement: at ShedInterval and above — or past the
	// parked-poll cap — a would-be long-poll answers immediately and
	// carries the server-assigned retry interval, degrading the client to
	// the paper's interval polling until pressure clears.
	parkRefused := wait > 0 && (a.ShedLevel() >= ShedInterval ||
		a.MaxParkedPolls > 0 && a.ParkedPolls() >= a.MaxParkedPolls)
	if parkRefused {
		a.parkRefusals.Add(1)
		wait = 0
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
		w := &pollWaiter{pid: pid, ts: ts, deltaOK: deltaOK}
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

// wakePoll completes one parked long-poll after its hub wake-up: a timeout,
// supersede or shutdown degrades to the §4.1.1 empty response; a real
// notification re-runs the step 2/3 check and delivers whatever is current
// (the re-check rides the single-flight guard, so N waiters waking on one
// document change still cost exactly one BuildContent). A supersede is
// answered without the barrier: it runs inside the newer poll, which holds
// it already.
func (a *Agent) wakePoll(w *pollWaiter, reply *pollReply) *httpwire.Response {
	if reply.superseded {
		return emptyPollResponse
	}
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		return a.movedSignal().response()
	}
	if reply.closed {
		// Agent shutdown: tell the snippet why so it backs off.
		return agentClosingPollResponse
	}
	if reply.timedOut {
		return emptyPollResponse
	}
	p, why := a.sessions.lookup(w.pid)
	if p == nil {
		// Disconnected while parked: the same answer a live poll would get.
		return closeResponse(why)
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
	p, f, errResp := a.pollSetup(req)
	if errResp != nil {
		return errResp
	}
	resp, _ := a.pollResponse(p, f.ts, f.deltaOK)
	return resp
}

// pollForm is the form body of a participant request — a poll or a
// /channel upgrade; each route reads the fields it needs. pid
// is the rcbpid cookie, else the first pid field; for every other field the
// last occurrence wins.
type pollForm struct {
	pid     string
	ts      int64         // the docTime the participant acknowledges
	wait    time.Duration // requested long-poll hang; 0 answers at once
	deltaOK bool          // the participant accepts deltaContent
	actions string        // EncodeActions payload of piggybacked actions
}

func parsePollForm(req *httpwire.Request) pollForm {
	f := pollForm{pid: pidFromRequest(req)}
	var waitMS int64
	for _, kv := range httpwire.ParseForm(string(req.Body)) {
		switch kv.Name {
		case "ts":
			f.ts, _ = strconv.ParseInt(kv.Value, 10, 64)
		case "actions":
			f.actions = kv.Value
		case "wait":
			waitMS, _ = strconv.ParseInt(kv.Value, 10, 64)
		case "delta":
			f.deltaOK = kv.Value == "1"
		case "pid":
			if f.pid == "" {
				f.pid = kv.Value
			}
		}
	}
	f.wait = time.Duration(waitMS) * time.Millisecond
	return f
}

// merge runs step 1 of §4.1.1, data merging, for one upstream batch from p
// — piggybacked on a poll or framed on the channel. The replay filter runs
// first, so a retried upstream (a poll replayed after a lost answer, rejoin
// re-send, channel resend) merges each action once; each survivor is
// sequenced and routed through the policy as p's: applied, queued for the
// host's confirmation, or denied. It returns the batch's highest CSeq,
// duplicates included — a replayed batch is acknowledged like the original
// — or the payload's decode error.
func (a *Agent) merge(p *participantState, payload string) (maxSeq int64, err error) {
	actions, err := DecodeActions(payload)
	if err != nil || len(actions) == 0 {
		return 0, err
	}
	for _, act := range actions {
		maxSeq = max(maxSeq, act.CSeq)
	}
	for _, act := range a.sessions.fresh(actions) {
		act.From = p.ID
		a.amu.Lock()
		a.actionSeq++
		act.Seq = a.actionSeq
		a.amu.Unlock()
		switch a.Policy.Decide(p.ID, act) {
		case Deny:
			a.logf("rcb-agent: denied %s", act)
		case Confirm:
			a.amu.Lock()
			a.pending = append(a.pending, PendingAction{Seq: act.Seq, ParticipantID: p.ID, Action: act})
			a.amu.Unlock()
			a.logf("rcb-agent: queued for confirmation: %s", act)
		case Apply:
			if err := a.ApplyAction(act); err != nil {
				a.logf("rcb-agent: apply %s: %v", act, err)
			}
		}
	}
	p.mu.Lock()
	p.LastSeen = time.Now()
	p.mu.Unlock()
	return maxSeq, nil
}

// pollSetup parses a polling request and runs steps 1 and 2 of §4.1.1:
// participant lookup, data merging, and timestamp bookkeeping. It returns
// the participant and its form, whose wait is capped at MaxPollWait — or a
// non-nil error response. The participant's parked poll, if any, is
// answered first: a participant keeps at most one, and its newest poll is
// the one that counts. A poll that carried actions parks like any other
// once they are merged; if its exchange then fails, the client replays
// them and the replay filter drops what was merged.
func (a *Agent) pollSetup(req *httpwire.Request) (*participantState, pollForm, *httpwire.Response) {
	f := parsePollForm(req)
	p, why := a.sessions.lookup(f.pid)
	if p == nil {
		return nil, f, closeResponse(why)
	}
	a.hub.supersede(p.ID)
	if _, err := a.merge(p, f.actions); err != nil {
		return nil, f, badActionResponse
	}

	// Step 2: timestamp inspection. Only this participant's lock is taken;
	// polls from other participants proceed in parallel.
	p.mu.Lock()
	p.LastDocTime = f.ts
	p.LastSeen = time.Now()
	p.Polls++
	p.mu.Unlock()

	f.wait = min(f.wait, a.maxPollWait())
	return p, f, nil
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
// oversized or unavailable delta) degrades to the snapshot. hasNew is false
// exactly when there is nothing to send: the state a long-poll parks on and
// a channel writer sleeps on.
func (a *Agent) deliver(p *participantState, ts int64, deltaOK bool) (deliverOut, error) {
	mode, outbox := p.drain()
	prep, err := a.pipeline.forMode(mode)
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
		if deltaOK && ts > 0 && a.deltasOn() {
			if d := a.pipeline.delta(mode, ts, prep); d != nil {
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
)

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

// JoinRefusals reports connection requests refused by admission control or
// the shed ladder.
func (a *Agent) JoinRefusals() int64 { return a.joinRefusals.Load() }

// ParkRefusals reports long-polls answered immediately because of the
// parked-poll cap or the shed ladder.
func (a *Agent) ParkRefusals() int64 { return a.parkRefusals.Load() }

// StaleKicks reports participants removed with CloseStaleReader
// (DisconnectWith): one per participant actually removed, so repeating the
// disconnect for a participant already gone does not count again.
func (a *Agent) StaleKicks() int64 { return a.staleKicks.Load() }

// ContentBuilds reports how many times the Figure 3 pipeline has executed —
// with the single-flight guard this advances once per (document version,
// mode) no matter how many participants poll concurrently.
func (a *Agent) ContentBuilds() int64 { return a.pipeline.builds.Load() }

// LatestDocTime reports the docTime of the newest prepared build across
// modes (0 before any build). Scale harnesses use it to map a host mutation
// to the docTime participants must reach, without re-rendering content.
func (a *Agent) LatestDocTime() int64 { return a.pipeline.latestDocTime() }

// BuildContent runs the Figure 3 generation pipeline against the host's
// live document and returns the prepared message; its Figure 4 snapshot is
// marshaled on first demand. Exported so the experiment harness can
// measure M5 (content generation time, GenTime) directly.
func (a *Agent) BuildContent(cacheMode bool) (*PreparedContent, error) {
	return a.pipeline.build(cacheMode)
}

// DiffBuilds reports how many delta scripts have been computed — with the
// delta single-flight guard this advances once per (base, target, mode)
// pair no matter how many delta-eligible polls race on it.
func (a *Agent) DiffBuilds() int64 { return a.pipeline.diffs.Load() }

// DeltasServed reports how many polls were answered with a deltaContent
// message instead of the full snapshot.
func (a *Agent) DeltasServed() int64 { return a.deltasServed.Load() }

// deltasOn reports whether deltas are served: the shed ladder's
// ShedNoDelta rung turns them off, trading bandwidth for the memory the
// delta-base ring holds.
func (a *Agent) deltasOn() bool { return a.ShedLevel() < ShedNoDelta }

// warmWakeDeltas is the delivery hub's preWake hook: it runs at the start of
// every wake round, after the parked waiters are collected but before any
// is answered. It gathers the distinct (mode, acked docTime) pairs of the
// woken waiters and of every attached channel, and builds the content and
// those deltas once — so the round's answers are all warm cache hits.
func (a *Agent) warmWakeDeltas(woken []*pollWaiter, chans []*agentChannel) {
	if !a.deltasOn() {
		return
	}
	a.smu.RLock()
	defer a.smu.RUnlock()
	if a.relocatedTo != "" {
		return
	}
	want := make(map[deltaPair]struct{})
	add := func(pid string, base int64) {
		if base <= 0 {
			return
		}
		if p, _ := a.sessions.lookup(pid); p != nil {
			p.mu.Lock()
			mode := p.CacheMode
			p.mu.Unlock()
			want[deltaPair{mode, base}] = struct{}{}
		}
	}
	for _, w := range woken {
		if w.deltaOK {
			add(w.pid, w.ts)
		}
	}
	for _, ch := range chans {
		if ch.deltaOK {
			ch.mu.Lock()
			base := ch.base
			ch.mu.Unlock()
			add(ch.pid, base)
		}
	}
	a.pipeline.warm(want)
}

// objectURL returns the full agent URL for an object path. When
// authentication is on, the URL is pre-signed: object fetches are issued by
// the participant browser's renderer, which cannot compute MACs itself.
func (a *Agent) objectURL(path string) string {
	target := path
	if a.Auth != nil {
		target = a.Auth.Sign("GET", path, nil)
	}
	return a.URL() + target
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
		// The data is only merged into the host DOM: the host user submits
		// by hand, as Bob does in the shopping study.
		return a.Browser.ApplyMutation(func(doc *dom.Document) error {
			form := ResolvePath(doc.Root, act.Target)
			if form == nil || form.Tag != "form" {
				return fmt.Errorf("stale form target %q", act.Target)
			}
			if mergeFormData(form, values) == 0 {
				a.logf("rcb-agent: formsubmit %s matched no fields", fmtPath(form))
			}
			return nil
		})
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
