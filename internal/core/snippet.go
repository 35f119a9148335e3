package core

import (
	"errors"
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

// SnippetStats counts a snippet's protocol activity.
type SnippetStats struct {
	Polls            int64
	EmptyPolls       int64
	ContentPolls     int64
	DeltaPolls       int64         // content polls answered incrementally (deltaContent)
	DeltaFailures    int64         // delta applies abandoned for a full resync
	ActionsSent      int64         // actions piggybacked on polling requests
	ActionsPushed    int64         // actions delivered through the /action upstream
	ActionFallbacks  int64         // failed pushes: the action waits in the outbox for the next poll
	PollFailures     int64         // polls that returned an error (transport or terminal)
	Rejoins          int64         // automatic rejoin-and-resync cycles completed
	Relocates        int64         // rejoins that followed an Rcb-Relocate address
	LastApplyTime    time.Duration // duration of the last Figure 5 application (the paper's M6)
	ObjectFetches    int64
	ObjectsFromAgent int64
	// Duplex counters: activity on the framed persistent channel.
	DuplexUpgrades    int64 // successful POST /channel upgrades
	DuplexFramesIn    int64 // frames received over channels
	DuplexFramesOut   int64 // frames sent over channels (actions, acks, pings)
	DuplexActionsSent int64 // actions delivered as channel frames
	DuplexFallbacks   int64 // channel losses/refusals that degraded to polling
	// LastCloseReason is the most recent close reason the agent sent —
	// why this snippet was dropped, refused, or told to back off.
	LastCloseReason CloseReason
}

// DeliveryMode selects how a snippet paces its polling requests.
type DeliveryMode int

const (
	// DeliveryInterval is the paper's fixed-interval poll (§4.2.1): sleep
	// PollInterval between requests, accept a mean staleness of half the
	// interval. This is the default and the fallback every other mode
	// degrades to.
	DeliveryInterval DeliveryMode = iota
	// DeliveryLongPoll is the hanging-GET (Comet) channel: each request
	// carries a wait field asking the agent to park it until new content
	// exists, and Run re-issues the next request immediately after a
	// response arrives. Staleness drops to the transfer time; an idle
	// session costs one request per LongPollWait instead of one per
	// PollInterval. Action piggybacking and rewind-on-failure work
	// exactly as in interval mode.
	DeliveryLongPoll
	// DeliveryDuplex upgrades the exchange to a single framed full-duplex
	// connection (POST /channel → 101): the agent pushes content and delta
	// frames the instant a build lands, and the snippet sends action frames
	// upstream on the same socket — no parked request, no separate action
	// lane, one HMAC for the connection's lifetime. When the channel is
	// refused or lost the snippet degrades to long-poll (and from there,
	// under park denial, to interval pacing) and periodically re-attempts
	// the upgrade — the full degradation ladder of README's delivery
	// section.
	DeliveryDuplex
)

// DefaultLongPollWait is the per-request hang a long-poll snippet asks for
// when LongPollWait is zero. Kept under the agent-side DefaultMaxPollWait
// so the request completes at the client's horizon, not the server's cap.
const DefaultLongPollWait = 20 * time.Second

// longPollReadSlack pads the client-side read deadline past the requested
// hang: the deadline is a safety net against a dead agent, not a second
// pacing mechanism, so it must never fire before a healthy agent's timeout
// response arrives.
const longPollReadSlack = 10 * time.Second

// Snippet is the participant-side Ajax-Snippet: the polling loop and
// content application procedure a participant browser's JavaScript runs
// (paper §4.2), reproduced as a Go state machine driving a participant
// browser model. One Snippet serves one participant.
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
	// Browser is the participant browser model.
	Browser *browser.Browser
	// AgentURL is the RCB-Agent address typed into the address bar,
	// e.g. "http://host.lan:3000".
	AgentURL string
	// Key is the out-of-band session secret; empty disables HMAC signing.
	Key string
	// PollInterval is the delay between polls when Run drives the loop in
	// interval mode, and the retry backoff after a failed poll in long-poll
	// mode. The paper's experiments use one second.
	PollInterval time.Duration
	// Delivery selects interval polling (default, paper semantics) or the
	// hanging-GET long-poll channel.
	Delivery DeliveryMode
	// LongPollWait is the maximum hang requested per long-poll request;
	// zero means DefaultLongPollWait. The agent may cap it further
	// (Agent.MaxPollWait). Ignored in interval mode.
	LongPollWait time.Duration
	// ActionPush enables the fire-and-forget action upstream in long-poll
	// mode: an action generated while the outbox is empty is POSTed to the
	// agent's /action endpoint at once, on its own connection lane, so it
	// never waits behind a parked poll; the action entry points block for
	// that round trip (bounded by actionPushTimeout). Actions behind an
	// unconfirmed one — a failed push's included — wait for the next poll,
	// so a dead agent costs one doomed round trip, not one per action.
	// Interval-mode snippets ignore the flag: their next request is at most
	// one interval away. A push whose answer was lost is replayed by the
	// next poll and dropped by the agent's (CID, CSeq) filter.
	ActionPush bool
	// FetchObjects controls whether supplementary objects are downloaded
	// after a content update (on by default; the experiment harness turns
	// it off when it wants to time M6 in isolation).
	FetchObjects bool
	// DisableDelta stops the snippet from advertising deltaContent support:
	// every content poll then carries the full Figure 4 snapshot, the
	// paper's exact protocol. Benchmarks use it to compare the two paths.
	DisableDelta bool
	// OnUserAction, when non-nil, receives mirrored actions of other users
	// (pointer moves, etc.).
	OnUserAction func(Action)
	// ClientID identifies this snippet for the agent's action replay
	// filter; every action is stamped with it plus a client-local sequence
	// number. Auto-generated when left empty. Stable across rejoins, so a
	// re-sent outbox is deduplicated even under a new participant identity.
	ClientID string
	// RetryBase/RetryMax shape the unified retry backoff (poll, join,
	// channel re-upgrade): delays double from RetryBase up to RetryMax with
	// half-to-full jitter, and reset on success. RetryBase defaults to
	// PollInterval, RetryMax to 30 seconds.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetryRand overrides the jitter source with a deterministic one
	// (tests); nil uses math/rand. Called only under the snippet's lock.
	RetryRand func() float64
	// DisableRejoin turns off the automatic rejoin-and-resync Run performs
	// after a retryable close reason; the error is still reported and the
	// loop keeps polling with its stale identity (useful for harnesses
	// that manage identity themselves).
	DisableRejoin bool

	auth *Authenticator

	mu sync.Mutex
	// curAgentURL is the agent the snippet currently talks to: AgentURL
	// until a MOVED response relocates the session, the Rcb-Relocate
	// address afterwards. prevAgentURL remembers the address before the
	// last relocation so a refused join at the new agent can fall back.
	// relocateTo holds a received Rcb-Relocate address until the next
	// Rejoin consumes it — exactly once.
	curAgentURL  string
	prevAgentURL string
	relocateTo   string
	// pollAddr caches the dial address resolved from pollAddrFor; it is
	// recomputed whenever the agent URL changes (relocation).
	pollAddr    string
	pollAddrFor string
	pollAddrErr error
	docTime     int64
	// out holds every action not yet confirmed by the agent; each transport
	// takes from its cursor, acknowledges what was merged, and rewinds on
	// failure.
	out         Outbox
	stats       SnippetStats
	lastObjects []browser.ObjectFetch
	// memoMu guards memo, not mu: an apply holds it across the browser's
	// mutation lock, and desync or Rejoin may reset the memo from another
	// goroutine meanwhile.
	memoMu sync.Mutex
	memo   ApplyMemo
	// parkDenied records that the most recent poll asked the agent to park
	// it and got an empty answer marked as a refusal (Rcb-Retry-After, or
	// AGENT_CLOSING once Agent.Close retired the push channel), so Run must
	// pace itself instead of re-issuing at network speed.
	parkDenied bool
	// agentClosing records that the last poll was answered with the
	// AgentClosing marker: the server completed it deliberately while
	// shutting down, so Run backs off instead of re-parking immediately.
	agentClosing bool
	// retryAfter is the server-assigned retry interval from the last poll
	// (shed ladder); zero when the server sent none.
	retryAfter time.Duration
	// rejoinNeeded is set when the agent terminated the session with a
	// retryable close reason; Run re-joins and resyncs before polling on.
	rejoinNeeded bool
	// channel is the live duplex connection, nil when none is attached; it
	// is published under both mu and sendMu. sendMu orders upstream channel
	// writes: attach, dispatch and QueueAction take from the outbox and
	// write under it, so frames leave in CSeq order and the agent's max-CSeq
	// ack is exactly cumulative. The write itself never holds mu — the frame
	// reader needs mu to make progress, and the agent stops reading while its
	// ack write to a stalled reader blocks.
	channel *httpwire.ChannelConn
	sendMu  sync.Mutex
	// duplexUntil suspends upgrade attempts after a refusal or channel loss:
	// until it passes, a DeliveryDuplex snippet runs the long-poll path, then
	// re-attempts the upgrade — degradation and recovery on one clock.
	duplexUntil   time.Time
	pollBackoff   *Backoff
	joinBackoff   *Backoff
	duplexBackoff *Backoff
}

// NewSnippet returns a snippet for a participant browser joining agentURL.
func NewSnippet(b *browser.Browser, agentURL, key string) *Snippet {
	s := &Snippet{
		Browser:      b,
		AgentURL:     agentURL,
		Key:          key,
		PollInterval: time.Second,
		FetchObjects: true,
	}
	if key != "" {
		s.auth = NewAuthenticator(key)
	}
	// The snippet performs the Figure 5 render pass itself; the browser's
	// renderer must not race it with its own mutation-triggered fetches.
	b.FetchOnMutate = false
	return s
}

// Stats returns a copy of the protocol counters.
func (s *Snippet) Stats() SnippetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DocTime returns the last document timestamp acknowledged.
func (s *Snippet) DocTime() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docTime
}

// LastObjectFetches reports the supplementary-object downloads of the most
// recent content application (experiment harness hook for M3/M4).
func (s *Snippet) LastObjectFetches() []browser.ObjectFetch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]browser.ObjectFetch(nil), s.lastObjects...)
}

// Join performs the new connection request (paper step 2): the participant
// types the agent URL into the address bar, receives the initial page
// containing Ajax-Snippet, and the channel is established.
func (s *Snippet) Join() error {
	url := s.agentURL()
	stats, err := s.Browser.Navigate(url + "/")
	if err != nil {
		var se *browser.StatusError
		if errors.As(err, &se) {
			if reason := ParseCloseReason(se.Header.Get(CloseReasonHeader)); reason != CloseNone {
				s.mu.Lock()
				s.stats.LastCloseReason = reason
				if ra := ParseRetryAfter(se.Header.Get(RetryAfterHeader)); ra > 0 {
					s.retryAfter = ra
				}
				if reason == CloseMoved {
					// The agent moved under us even for joining: follow the
					// relocation on the next Rejoin attempt.
					if addr := se.Header.Get(RelocateHeader); addr != "" {
						s.relocateTo = normalizeAgentURL(addr)
					}
					s.rejoinNeeded = true
				}
				s.mu.Unlock()
				return fmt.Errorf("rcb-snippet: join %s: %w", url,
					&CloseError{Reason: reason, Status: se.StatusCode})
			}
		}
		return fmt.Errorf("rcb-snippet: join %s: %w", url, err)
	}
	_ = stats
	var hasSnippet bool
	err = s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		hasSnippet = doc.ByID("rcb-ajax-snippet") != nil
		return nil
	})
	if err != nil {
		return err
	}
	if !hasSnippet {
		return fmt.Errorf("rcb-snippet: initial page from %s has no Ajax-Snippet", url)
	}
	return nil
}

// CurrentAgentURL reports which agent the snippet is talking to — AgentURL
// until a relocation was followed, the new agent's URL afterwards.
func (s *Snippet) CurrentAgentURL() string { return s.agentURL() }

// QueueAction buffers an action for piggybacking on the next polling
// request (paper §4.2.1: the POST method is used "so that action
// information of a co-browsing participant can be directly piggybacked").
// On a live duplex channel the next request is the channel itself, so the
// action leaves at once, behind every earlier unconfirmed one.
func (s *Snippet) QueueAction(act Action) {
	s.mu.Lock()
	s.outboxLocked().Add(act)
	s.mu.Unlock()
	s.sendChannel()
}

// snippetSeq distinguishes auto-generated client IDs within a process.
var snippetSeq atomic.Int64

// outboxLocked returns the outbox, first fixing its replay-filter client id
// (ClientID, or an auto-generated one) if no action was stamped yet.
func (s *Snippet) outboxLocked() *Outbox {
	if s.out.CID == "" {
		s.out.CID = s.ClientID
		if s.out.CID == "" {
			s.out.CID = "c" + strconv.FormatInt(time.Now().UnixNano(), 36) +
				"-" + strconv.FormatInt(snippetSeq.Add(1), 10)
		}
	}
	return &s.out
}

// backoffsLocked lazily builds the three retry schedules; separate
// instances, because a flapping join must not inflate poll retry delays
// (and vice versa). The duplex schedule paces re-upgrade attempts while the
// snippet rides its long-poll fallback.
func (s *Snippet) backoffsLocked() (poll, join *Backoff) {
	if s.pollBackoff == nil {
		base := s.RetryBase
		if base <= 0 {
			base = s.PollInterval
		}
		s.pollBackoff = newBackoff(base, s.RetryMax, s.RetryRand)
		s.joinBackoff = newBackoff(base, s.RetryMax, s.RetryRand)
		s.duplexBackoff = newBackoff(base, s.RetryMax, s.RetryRand)
	}
	return s.pollBackoff, s.joinBackoff
}

// LastCloseReason reports the most recent close reason received from the
// agent (CloseNone when the session never saw one).
func (s *Snippet) LastCloseReason() CloseReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.LastCloseReason
}

// RejoinNeeded reports whether the agent closed this session with a
// retryable reason and the snippet is waiting to rejoin.
func (s *Snippet) RejoinNeeded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejoinNeeded
}

// Rejoin re-registers with the agent and resets sync state so the next
// poll fetches a full snapshot — the recovery path after a retryable close
// reason (agent restart, stale-reader kick, expired identity). The outbox
// survives: unconfirmed actions are re-sent under the same (CID, CSeq)
// stamps and the agent's replay filter keeps delivery exactly-once.
//
// A pending Rcb-Relocate address is consumed here, exactly once: the join
// goes to the new agent, and on failure the snippet falls back to the
// address it was using before (where a MOVED answer may hand it a fresh
// relocation — chained handovers converge the same way).
func (s *Snippet) Rejoin() error {
	s.mu.Lock()
	relocated := false
	if s.relocateTo != "" {
		s.prevAgentURL = s.agentURLLocked()
		s.curAgentURL = s.relocateTo
		s.relocateTo = ""
		relocated = true
	}
	s.mu.Unlock()
	if err := s.Join(); err != nil {
		if relocated {
			s.mu.Lock()
			// The relocation target refused us: fall back to the previous
			// agent rather than stranding the session on a dead address.
			s.curAgentURL = s.prevAgentURL
			s.mu.Unlock()
		}
		return err
	}
	s.mu.Lock()
	if relocated {
		s.stats.Relocates++
	}
	s.docTime = 0
	s.rejoinNeeded = false
	s.agentClosing = false
	// A fresh identity deserves a fresh upgrade attempt: after a relocation
	// the new agent has never refused this snippet a channel.
	s.duplexUntil = time.Time{}
	if s.duplexBackoff != nil {
		s.duplexBackoff.Reset()
	}
	s.stats.Rejoins++
	_, join := s.backoffsLocked()
	join.Reset()
	s.mu.Unlock()
	s.resetMemo()
	return nil
}

// actionLane is the client connection lane action pushes travel on — its
// own persistent connection, so a push never queues behind a polling
// exchange the agent has parked.
const actionLane = "action"

// actionPushTimeout bounds the /action round trip: the endpoint answers
// immediately by design, so anything slower than this is a dead or
// unreachable agent and the action must wait in the outbox for a poll.
const actionPushTimeout = 5 * time.Second

// dispatch routes one locally generated user action upstream. It joins the
// outbox first, so every path sends from the same ordered buffer: a live
// duplex channel writes the unsent tail at once; otherwise, with ActionPush
// on in a hanging mode and nothing older unconfirmed, the action is POSTed
// to /action, and a failure rewinds the outbox so it waits for the next
// poll with everything after it; otherwise it waits for the next poll.
// Delivery is at-least-once on the wire and exactly-once in effect through
// the agent's (CID, CSeq) replay filter.
func (s *Snippet) dispatch(act Action) {
	s.mu.Lock()
	out := s.outboxLocked()
	push := s.channel == nil && out.Len() == 0 &&
		s.ActionPush && s.Delivery != DeliveryInterval
	out.Add(act)
	var batch []Action
	if push {
		batch = out.Take()
	}
	s.mu.Unlock()
	if !push {
		s.sendChannel()
		return
	}
	err := s.PushAction(batch[0])
	s.mu.Lock()
	if err == nil {
		s.out.AckBatch(batch)
		s.mu.Unlock()
		return
	}
	s.out.Rewind()
	s.stats.ActionFallbacks++
	if reason := CloseReasonOf(err); reason != CloseNone {
		s.stats.LastCloseReason = reason
	}
	s.mu.Unlock()
	// A channel that attached during the push has already carried the
	// action once; resend after the rewind so nothing waits on a live
	// channel for a dispatch that may never come.
	s.sendChannel()
}

// PushAction sends one action to the agent's /action endpoint and waits for
// the acknowledgment. The exchange rides the dedicated action lane, so it
// proceeds even while this snippet's polling request is parked server-side.
// It bypasses the outbox: callers wanting the automatic piggyback fallback
// should go through the action entry points (ClickElement, PointerMove,
// ...) instead.
func (s *Snippet) PushAction(act Action) error {
	body := httpwire.AppendForm(make([]byte, 0, 64), []httpwire.FormField{
		{Name: "actions", Value: EncodeActions([]Action{act})},
	})
	target := "/action"
	if s.auth != nil {
		target = s.auth.Sign("POST", target, body)
	}
	addr, err := s.agentAddr()
	if err != nil {
		return err
	}
	req := httpwire.NewRequest("POST", target)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if c := s.Browser.Jar.Header(browser.HostOf(s.agentURL() + "/")); c != "" {
		req.Header.Set("Cookie", c)
	}
	req.Body = body
	resp, err := s.Browser.Client.DoLane(addr, actionLane, req, actionPushTimeout)
	if err != nil {
		return fmt.Errorf("rcb-snippet: action push: %w", err)
	}
	if resp.StatusCode != 200 {
		if reason := ParseCloseReason(resp.Header.Get(CloseReasonHeader)); reason != CloseNone {
			return fmt.Errorf("rcb-snippet: action push: %w",
				&CloseError{Reason: reason, Status: resp.StatusCode})
		}
		return fmt.Errorf("rcb-snippet: action push returned %d", resp.StatusCode)
	}
	s.mu.Lock()
	s.stats.ActionsPushed++
	s.mu.Unlock()
	return nil
}

// ClickElement dispatches a click action for the element with the given
// data-rcb path in the participant's current document — what the rewritten
// onclick handler does in a real browser. Like every action entry point it
// goes through dispatch: written to a live channel or pushed upstream
// immediately when it can be, piggybacked on the next poll otherwise.
func (s *Snippet) ClickElement(domID string) error {
	path, err := s.rcbPathOf(domID, "")
	if err != nil {
		return err
	}
	s.dispatch(Action{Kind: ActionClick, Target: path})
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
	s.dispatch(Action{Kind: ActionFormSubmit, Target: path, Fields: fields})
	return nil
}

// InputField dispatches a forminput action for the field with the given DOM
// id.
func (s *Snippet) InputField(domID, value string) error {
	path, err := s.rcbPathOf(domID, "")
	if err != nil {
		return err
	}
	s.dispatch(Action{Kind: ActionFormInput, Target: path, Value: value})
	return nil
}

// PointerMove dispatches a pointer-mirroring action.
func (s *Snippet) PointerMove(x, y int) {
	s.dispatch(Action{Kind: ActionMouseMove, X: x, Y: y})
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

// lastParkDenied reports whether the most recent poll asked to park and was
// refused (answered instantly empty). Run falls back to interval pacing
// when it holds, so a long-poll loop cannot spin at network speed against
// an agent whose push channel has been closed but whose server still
// serves.
func (s *Snippet) lastParkDenied() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parkDenied
}

// agentURL returns the URL of the agent currently serving this snippet:
// AgentURL until a relocation, the followed Rcb-Relocate address after.
func (s *Snippet) agentURL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agentURLLocked()
}

func (s *Snippet) agentURLLocked() string {
	if s.curAgentURL == "" {
		s.curAgentURL = s.AgentURL
	}
	return s.curAgentURL
}

// agentAddr resolves and returns the agent dial address, shared by the
// polling and action-push paths. The result is cached per agent URL and
// recomputed when a relocation changes it.
func (s *Snippet) agentAddr() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	url := s.agentURLLocked()
	if url != s.pollAddrFor {
		s.pollAddr, s.pollAddrErr = browser.AddrOf(url + "/")
		s.pollAddrFor = url
	}
	return s.pollAddr, s.pollAddrErr
}

// normalizeAgentURL turns a bare Rcb-Relocate address into an agent URL.
func normalizeAgentURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// longPollWait resolves the hang to request per poll: 0 in interval mode.
// A duplex snippet asks for the hang too — its polls are the long-poll
// fallback rung of the degradation ladder.
func (s *Snippet) longPollWait() time.Duration {
	if s.Delivery == DeliveryInterval {
		return 0
	}
	if s.LongPollWait > 0 {
		return s.LongPollWait
	}
	return DefaultLongPollWait
}

// PollOnce sends one Ajax polling request and processes the response per
// Figure 5. It reports whether new document content was applied. In
// long-poll mode the request asks the agent to park it (wait field), so the
// call may block for up to LongPollWait before returning an empty result;
// the connection carries a read deadline slightly past that hang so a dead
// agent cannot park the snippet forever.
func (s *Snippet) PollOnce() (updated bool, err error) {
	addr, err := s.agentAddr()
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	ts := s.docTime
	actions := s.out.Take()
	s.stats.Polls++
	s.stats.ActionsSent += int64(len(actions))
	s.parkDenied = false
	s.agentClosing = false
	s.retryAfter = 0
	s.mu.Unlock()

	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(ts, 10)}}
	if !s.DisableDelta && ts > 0 {
		// Advertise delta support once a baseline exists; the agent still
		// decides per response whether a delta is available and worthwhile.
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	if len(actions) > 0 {
		fields = append(fields, httpwire.FormField{Name: "actions", Value: EncodeActions(actions)})
	}
	wait := s.longPollWait()
	if wait > 0 && len(actions) > 0 {
		// An action-carrying request never parks: the agent merges actions
		// before deciding to park, so a parked exchange that later fails
		// (server shutdown, dropped link, tripped read deadline) would
		// rewind and replay actions the host already applied. Asking for
		// an immediate answer keeps the merged-but-unanswered window at
		// round-trip scale, as in interval mode; the next poll, action-
		// free, parks as usual.
		wait = 0
	}
	var readTimeout time.Duration
	if wait > 0 {
		fields = append(fields, httpwire.FormField{Name: "wait", Value: strconv.FormatInt(wait.Milliseconds(), 10)})
		readTimeout = wait + longPollReadSlack
	}
	body := httpwire.AppendForm(make([]byte, 0, 64), fields)
	target := "/poll"
	if s.auth != nil {
		target = s.auth.Sign("POST", target, body)
	}
	req := httpwire.NewRequest("POST", target)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if c := s.Browser.Jar.Header(browser.HostOf(s.agentURL() + "/")); c != "" {
		req.Header.Set("Cookie", c)
	}
	req.Body = body
	resp, err := s.Browser.Client.DoTimeout(addr, req, readTimeout)
	if err != nil {
		// A failed poll rewinds the outbox so interaction is not lost on a
		// transient drop. Replays of actions the agent did merge before the
		// failure are absorbed by its (CID, CSeq) filter.
		s.mu.Lock()
		s.out.Rewind()
		s.stats.PollFailures++
		s.mu.Unlock()
		return false, fmt.Errorf("rcb-snippet: poll: %w", err)
	}
	if resp.StatusCode != 200 {
		s.mu.Lock()
		s.out.Rewind()
		s.stats.PollFailures++
		if ra := ParseRetryAfter(resp.Header.Get(RetryAfterHeader)); ra > 0 {
			// A server-assigned interval on a terminal answer is the floor
			// for the retry delay, exactly as on shed responses.
			s.retryAfter = ra
		}
		reason := ParseCloseReason(resp.Header.Get(CloseReasonHeader))
		if reason != CloseNone {
			s.stats.LastCloseReason = reason
			if reason.Retryable() {
				s.rejoinNeeded = true
			}
			if reason == CloseMoved {
				if addr := resp.Header.Get(RelocateHeader); addr != "" {
					s.relocateTo = normalizeAgentURL(addr)
				}
			}
		}
		s.mu.Unlock()
		if reason != CloseNone {
			return false, fmt.Errorf("rcb-snippet: poll: %w",
				&CloseError{Reason: reason, Status: resp.StatusCode})
		}
		return false, fmt.Errorf("rcb-snippet: poll returned %d", resp.StatusCode)
	}
	// A 200 means the agent merged the form's actions before answering.
	s.mu.Lock()
	s.out.AckBatch(actions)
	s.mu.Unlock()
	// "If RCB-Agent indicates no new content with an empty response
	// content, Ajax-Snippet simply ... send[s] a new polling request after a
	// specified time interval."
	if len(resp.Body) == 0 {
		// An empty answer refuses the park only when the agent marks it:
		// every deliberate refusal carries Rcb-Retry-After (shed ladder,
		// parked-poll cap) or AGENT_CLOSING (hub closed). An unmarked one
		// is a hang that timed out, or a spurious wake — a poll that parked
		// at a version whose change notification was still on its way —
		// and either way the right move is to park again at once; how fast
		// it arrived says nothing.
		closing := ParseCloseReason(resp.Header.Get(CloseReasonHeader)) == CloseAgentClosing
		retryAfter := ParseRetryAfter(resp.Header.Get(RetryAfterHeader))
		s.mu.Lock()
		s.stats.EmptyPolls++
		s.parkDenied = wait > 0 && (closing || retryAfter > 0)
		s.agentClosing = closing
		if closing {
			s.stats.LastCloseReason = CloseAgentClosing
		}
		s.retryAfter = retryAfter
		s.mu.Unlock()
		return false, nil
	}
	if MessageIsDelta(resp.Body) {
		return s.handleDeltaResponse(resp.Body, ts)
	}
	content, err := Unmarshal(resp.Body)
	if err != nil {
		return false, fmt.Errorf("rcb-snippet: bad response content: %w", err)
	}
	for _, act := range content.UserActions {
		if s.OnUserAction != nil {
			s.OnUserAction(act)
		}
	}
	if !content.HasDocument {
		return false, nil
	}
	if err := s.ApplyContent(content); err != nil {
		return false, err
	}
	s.mu.Lock()
	s.docTime = content.DocTime
	s.stats.ContentPolls++
	s.mu.Unlock()
	return true, nil
}

// handleDeltaResponse applies an incremental deltaContent answer: mirror
// actions are dispatched as usual, then the patch scripts are applied in
// place — no payload re-parse. The base check guards the multi-version
// ring's contract: whichever retained build the agent diffed against must
// be exactly the docTime this snippet acknowledged. Any failure (codec
// error, base mismatch, patch that does not resolve) abandons the delta and
// resets the acknowledged timestamp to zero, so the very next poll fetches
// a full snapshot and rebuilds from scratch: the participant can render
// stale for one round trip but can never stay diverged.
func (s *Snippet) handleDeltaResponse(body []byte, ts int64) (bool, error) {
	d, err := UnmarshalDelta(body)
	if err != nil {
		s.desync()
		return false, fmt.Errorf("rcb-snippet: bad delta content: %w (resyncing)", err)
	}
	for _, act := range d.UserActions {
		if s.OnUserAction != nil {
			s.OnUserAction(act)
		}
	}
	if d.BaseDocTime != ts {
		s.desync()
		return false, fmt.Errorf("rcb-snippet: delta base %d does not match acknowledged %d (resyncing)", d.BaseDocTime, ts)
	}
	start := time.Now()
	s.memoMu.Lock()
	err = s.Browser.ApplyMutation(func(doc *dom.Document) error {
		return s.memo.ApplyDelta(doc, d)
	})
	s.memoMu.Unlock()
	apply := time.Since(start)
	if err != nil {
		s.desync()
		s.mu.Lock()
		s.stats.DeltaFailures++
		s.mu.Unlock()
		return false, fmt.Errorf("rcb-snippet: apply delta: %w (resyncing)", err)
	}
	s.mu.Lock()
	s.docTime = d.DocTime
	s.stats.LastApplyTime = apply
	s.stats.ContentPolls++
	s.stats.DeltaPolls++
	s.mu.Unlock()
	return true, s.fetchContentObjects()
}

// desync forgets the acknowledged document timestamp: the next poll reports
// ts=0, which the agent always answers with a full snapshot.
func (s *Snippet) desync() {
	s.mu.Lock()
	s.docTime = 0
	s.mu.Unlock()
	s.resetMemo()
}

// resetMemo forgets what the memo installed, so the next apply re-installs
// every region.
func (s *Snippet) resetMemo() {
	s.memoMu.Lock()
	s.memo = ApplyMemo{}
	s.memoMu.Unlock()
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
	agentHost := hostOf(s.agentURLLocked())
	s.lastObjects = fetches
	s.stats.ObjectFetches += int64(len(fetches))
	for _, f := range fetches {
		if hostOf(f.URL) == agentHost {
			s.stats.ObjectsFromAgent++
		}
	}
	s.mu.Unlock()
	return nil
}

func hostOf(u string) string { return browser.HostOf(u) }

// ApplyContentToDocument is the pure DOM transformation of Figure 5,
// exported for direct testing and for the experiment harness's M6
// measurement. It always applies in full; the snippet's own polling loop
// goes through ApplyMemo.Apply, which skips re-parsing unchanged payloads.
func ApplyContentToDocument(doc *dom.Document, content *NewContent) error {
	return applyContent(doc, content, nil)
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
	return applyContent(doc, content, m)
}

func applyContent(doc *dom.Document, content *NewContent, memo *ApplyMemo) error {
	root := doc.Root
	head := doc.Head()

	// Steps 1 and 2: head cleanup and rebuild — skipped entirely when the
	// new head children match what this memo last installed.
	if memo == nil || !memo.headOK || !headChildrenEqual(memo.head, content.Head) {
		rebuildHead(head, content.Head)
		if memo != nil {
			memo.head = append(memo.head[:0], content.Head...)
			memo.headOK = true
		}
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
			if last != nil {
				*last = appliedTop{}
			}
			return
		}
		el := root.FirstChildElement(tag)
		if el == nil {
			el = dom.NewElement(tag)
			root.AppendChild(el)
			if last != nil {
				*last = appliedTop{}
			}
		}
		el.Attrs = append([]dom.Attr(nil), te.Attrs...)
		if last != nil && last.ok && last.inner == te.Inner {
			return
		}
		dom.SetInnerHTML(el, te.Inner)
		if last != nil {
			*last = appliedTop{inner: te.Inner, ok: true}
		}
	}
	if memo != nil {
		setTop("body", content.Body, &memo.body)
		setTop("frameset", content.FrameSet, &memo.frameset)
		setTop("noframes", content.NoFrames, &memo.noframes)
	} else {
		setTop("body", content.Body, nil)
		setTop("frameset", content.FrameSet, nil)
		setTop("noframes", content.NoFrames, nil)
	}
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

// Run drives the polling loop until stop is closed (paper: "The first Ajax
// request is sent after the initial HTML page is loaded ... each following
// Ajax request is triggered after the response to the previous one is
// received"). In interval mode (default) the loop sleeps PollInterval
// between polls; in long-poll mode it re-issues the next request
// immediately — the agent provides the pacing by parking the request.
//
// Failure handling is the unified backoff ladder: consecutive poll errors
// (and AgentClosing answers) double the retry delay from RetryBase up to
// RetryMax with jitter, resetting the moment a poll succeeds; a
// server-assigned Rcb-Retry-After is honored as the floor. When the agent
// closes the session with a retryable reason (restart, stale-reader kick,
// shed OVERCOMMITTED), Run rejoins and resyncs automatically — a
// non-retryable close (LEAVE, KICKED) ends the loop, the one error that
// genuinely means the session is over. Other errors are delivered to errf
// when non-nil and the loop continues — a dropped poll must not end the
// session (PollOnce rewinds the outbox, so its actions ride the next one).
func (s *Snippet) Run(stop <-chan struct{}, errf func(error)) {
	interval := s.PollInterval
	if interval <= 0 {
		interval = time.Second
	}
	timer := time.NewTimer(0) // first poll fires immediately after page load
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if !s.DisableRejoin && s.RejoinNeeded() {
			if err := s.Rejoin(); err != nil {
				if errf != nil {
					errf(err)
				}
				if r := CloseReasonOf(err); r != CloseNone && !r.Retryable() {
					return // the agent refused re-admission for good
				}
				s.mu.Lock()
				_, join := s.backoffsLocked()
				d := join.Next()
				if s.retryAfter > d {
					d = s.retryAfter // server-assigned pacing floors the rejoin delay too
				}
				s.mu.Unlock()
				resetTimer(timer, d)
				continue
			}
		}
		if s.duplexEligible() {
			err := s.DuplexOnce(stop)
			if err != nil && errf != nil {
				errf(err)
			}
			if r := CloseReasonOf(err); r != CloseNone && !r.Retryable() {
				return // deliberate removal over the channel: session over
			}
			select {
			case <-stop:
				return
			default:
			}
			// The channel ended (refused, lost, or closed with a reason);
			// the next iteration rejoins if needed, or rides the long-poll
			// fallback until duplexUntil re-admits an upgrade attempt.
			resetTimer(timer, s.duplexDelay())
			continue
		}
		_, err := s.PollOnce()
		if err != nil && errf != nil {
			errf(err)
		}
		if r := CloseReasonOf(err); r != CloseNone && !r.Retryable() {
			return // deliberate removal (LEAVE/KICKED): the session is over
		}
		resetTimer(timer, s.runDelay(err, interval))
	}
}

// runDelay picks the pause before the next polling request: zero after a
// healthy long-poll completion (the agent paces by parking), the jittered
// poll backoff after a failure or an AgentClosing answer, the server's
// Rcb-Retry-After when it exceeds the local choice, and PollInterval for
// everything else (interval mode, park denials).
func (s *Snippet) runDelay(err error, interval time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	poll, _ := s.backoffsLocked()
	var d time.Duration
	switch {
	case err != nil, s.agentClosing:
		d = poll.Next()
	default:
		poll.Reset()
		if s.Delivery != DeliveryInterval && !s.parkDenied {
			d = 0 // hanging GET completed; re-park immediately
		} else {
			d = interval
		}
	}
	if s.retryAfter > d {
		d = s.retryAfter // the agent asked for explicit pacing (shed ladder)
	}
	return d
}

// resetTimer re-arms a loop timer whose previous fire was consumed.
// Stop-and-drain before Reset: a poll can take arbitrarily long (a parked
// long-poll, a slow WAN transfer), and Reset on a timer that might have a
// pending fire is how loops double-poll or strand a timer goroutine. Stop
// plus a non-blocking drain makes the Reset safe on every path.
func resetTimer(timer *time.Timer, d time.Duration) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(d)
}
