package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/browser"
	"rcb/internal/httpwire"
)

// SnippetStats counts a protocol client's activity.
type SnippetStats struct {
	Polls            int64
	EmptyPolls       int64
	ContentPolls     int64
	DeltaPolls       int64         // content polls answered incrementally (deltaContent)
	DeltaFailures    int64         // delta applies abandoned for a full resync
	ActionsSent      int64         // actions carried by polling requests
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
	// why this client was dropped, refused, or told to back off.
	LastCloseReason CloseReason
}

// DeliveryMode selects how a protocol client (a Snippet, or a DOM-free
// Client) receives content. Every mode speaks the same poll form and close
// protocol; they differ only in whether a request parks and whether a
// channel replaces requests altogether.
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
	// PollInterval. An action does not wait for the park to end: it leaves
	// at once as a poll of its own, pipelined on the connection the parked
	// poll holds; the agent answers the old park empty, merges the actions
	// and parks the action poll in its place.
	DeliveryLongPoll
	// DeliveryDuplex upgrades the exchange to a single framed full-duplex
	// connection (POST /channel → 101): the agent pushes content and delta
	// frames the instant a build lands, and the client sends action frames
	// upstream on the same socket — no parked request, one HMAC for the
	// connection's lifetime. When the channel is
	// refused or lost the client degrades to long-poll (and from there,
	// under park denial, to interval pacing) and periodically re-attempts
	// the upgrade — the full degradation ladder of README's delivery
	// section.
	DeliveryDuplex
)

// DefaultLongPollWait is the per-request hang a long-poll client asks for
// when LongPollWait is zero. Kept under the agent-side DefaultMaxPollWait
// so the request completes at the client's horizon, not the server's cap.
const DefaultLongPollWait = 20 * time.Second

// longPollReadSlack pads every poll's read deadline past the requested
// hang (zero for a non-parking poll): the deadline is a safety net against
// a silent agent, not a second pacing mechanism, so it must never fire
// before a healthy agent's answer arrives.
const longPollReadSlack = 10 * time.Second

// docTimeJoinTimeout bounds a DOM-free client's GET / round trip.
const docTimeJoinTimeout = 10 * time.Second

// Client is the participant's side of the RCB wire protocol with no DOM:
// the state machine of the paper's Ajax-Snippet (§4.2) — join, poll with
// the acknowledged ts, advertise deltas, park, piggyback the action outbox,
// route close reasons, follow relocations, back off — driving whatever
// document it keeps in sync through a small seam. A Snippet is a Client
// whose document is a participant browser applying Figure 5;
// NewDocTimeClient returns one whose document is only the docTime it holds,
// which is what a thousand-participant fleet runs in one process.
type Client struct {
	// AgentURL is the RCB-Agent address typed into the address bar,
	// e.g. "http://host.lan:3000".
	AgentURL string
	// Key is the out-of-band session secret; empty disables HMAC signing.
	Key string
	// PollInterval is the delay between polls when Run drives the loop in
	// interval mode, and the pause after a refused park in the hanging
	// modes. The paper's experiments use one second.
	PollInterval time.Duration
	// Delivery selects interval polling (default, paper semantics), the
	// hanging-GET long-poll channel, or the duplex channel.
	Delivery DeliveryMode
	// LongPollWait is the maximum hang requested per long-poll request;
	// zero means DefaultLongPollWait. The agent may cap it further
	// (Agent.MaxPollWait). Ignored in interval mode.
	LongPollWait time.Duration
	// DisableDelta stops the client from advertising deltaContent support:
	// every content poll then carries the full Figure 4 snapshot, the
	// paper's exact protocol. Benchmarks use it to compare the two paths.
	DisableDelta bool
	// ClientID identifies this client for the agent's action replay
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
	// (tests); nil uses math/rand. Called only under the client's lock.
	RetryRand func() float64

	doc  document
	http *httpwire.Client
	auth *Authenticator

	mu sync.Mutex
	// joined records a successful join; until then Run joins before it
	// polls.
	joined bool
	// curAgentURL is the agent the client currently talks to: AgentURL
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
	out   Outbox
	stats SnippetStats
	// polls holds the polls written on the agent connection whose answers
	// are not read yet, in write order; they are appended under sendMu and
	// read by readPolls. unanswered counts every poll written and not yet
	// answered, including the one readPolls is reading. QueueAction writes
	// an action poll only while at most the park is unanswered, so the park
	// and one action poll are the most ever in flight; the tail held back
	// meanwhile goes out when the answer ahead of that action poll arrives.
	// held stops action polls after a poll's write or answer failed, until
	// a poll is answered: a dead agent costs one doomed write, not one per
	// action.
	polls      []pendingPoll
	unanswered int
	held       bool
	// parkDenied records that the most recent poll asked the agent to park
	// it and got an empty answer marked as a refusal (Rcb-Retry-After, or
	// AGENT_CLOSING once Agent.Close retired the push channel), so Run must
	// pace itself instead of re-issuing at network speed.
	parkDenied bool
	// agentClosing records that the last poll was answered with the
	// AgentClosing marker: the server completed it deliberately while
	// shutting down, so Run backs off instead of re-parking immediately.
	agentClosing bool
	// retryAfter is the server-assigned retry interval from the last
	// answer (shed ladder, MOVED); zero when the server sent none.
	retryAfter time.Duration
	// rejoinNeeded is set when the agent terminated the session with a
	// retryable close reason; Run re-joins and resyncs before polling on.
	rejoinNeeded bool
	// channel is the live duplex connection, nil when none is attached.
	// sendMu orders upstream writes: QueueAction, channel attach and every
	// poll take the outbox's whole unsent tail and write it under sendMu, so
	// batches leave in CSeq order and the agent's max-CSeq ack is exactly
	// cumulative. The write itself never holds mu — the frame
	// reader needs mu to make progress, and the agent stops reading while its
	// ack write to a stalled reader blocks.
	channel *httpwire.ChannelConn
	sendMu  sync.Mutex
	// duplexUntil suspends upgrade attempts after a refusal or channel loss:
	// until it passes, a DeliveryDuplex client runs the long-poll path, then
	// re-attempts the upgrade — degradation and recovery on one clock.
	duplexUntil   time.Time
	pollBackoff   *Backoff
	joinBackoff   *Backoff
	duplexBackoff *Backoff
}

// document is the seam between a Client and the replica it keeps in sync.
// The client owns the wire; the document owns what a message means.
type document interface {
	// join loads the session page from the agent at url (paper step 2) and
	// adopts the rcbpid identity it sets. A refusal comes back as its
	// status and headers, not as an error.
	join(url string) (status int, h httpwire.Header, err error)
	// cookie is the Cookie header that carries the identity to url.
	cookie(url string) string
	// apply mirrors one message's actions and installs its document, if
	// m.hasDoc: the client clears it for a message that has none or whose
	// delta base it did not acknowledge.
	apply(body []byte, m msgHeader) error
	// reset forgets what was applied, so the next message installs whole.
	reset()
}

// NewDocTimeClient returns a protocol client whose document is only the
// docTime it holds: it joins with a bare GET /, reads each message's header
// and nothing else, and reports every docTime it reaches to onSync (nil
// for none). It speaks exactly the snippet's wire, so a fleet of them costs
// the agent what a fleet of browsers would, without a DOM per participant.
func NewDocTimeClient(hc *httpwire.Client, agentURL string, onSync func(docTime int64)) *Client {
	return &Client{
		AgentURL:     agentURL,
		PollInterval: time.Second,
		http:         hc,
		doc:          &docTimeDoc{http: hc, onSync: onSync},
	}
}

// docTimeDoc is the DOM-free document: the rcbpid its last join adopted,
// plus a hook for the docTime of each content message.
type docTimeDoc struct {
	http   *httpwire.Client
	onSync func(docTime int64)
	pid    atomic.Value // string
}

func (d *docTimeDoc) join(url string) (int, httpwire.Header, error) {
	addr, err := browser.AddrOf(url + "/")
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.http.DoTimeout(addr, httpwire.NewRequest("GET", "/"), docTimeJoinTimeout)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != 200 {
		return resp.StatusCode, resp.Header, nil
	}
	pid := rcbpidOf(resp.Header.Get("Set-Cookie"))
	if pid == "" {
		return 0, nil, errors.New("join answer sets no rcbpid cookie")
	}
	d.pid.Store(pid)
	return 200, nil, nil
}

func (d *docTimeDoc) cookie(string) string {
	if pid, _ := d.pid.Load().(string); pid != "" {
		return "rcbpid=" + pid
	}
	return ""
}

func (d *docTimeDoc) apply(_ []byte, m msgHeader) error {
	if m.hasDoc && d.onSync != nil {
		d.onSync(m.docTime)
	}
	return nil
}

func (d *docTimeDoc) reset() {}

// rcbpidOf extracts the rcbpid value from a Cookie or Set-Cookie header.
func rcbpidOf(header string) string {
	for _, part := range strings.Split(header, ";") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(part), "rcbpid="); ok {
			return v
		}
	}
	return ""
}

// Stats returns a copy of the protocol counters.
func (c *Client) Stats() SnippetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DocTime returns the last document timestamp acknowledged.
func (c *Client) DocTime() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.docTime
}

// ParticipantID reports the rcbpid identity the client currently presents
// to its agent ("" before the first join).
func (c *Client) ParticipantID() string { return rcbpidOf(c.doc.cookie(c.agentURL())) }

// CurrentAgentURL reports which agent the client is talking to — AgentURL
// until a relocation was followed, the new agent's URL afterwards.
func (c *Client) CurrentAgentURL() string { return c.agentURL() }

// LastCloseReason reports the most recent close reason received from the
// agent (CloseNone when the session never saw one).
func (c *Client) LastCloseReason() CloseReason {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.LastCloseReason
}

// RejoinNeeded reports whether the agent closed this session with a
// retryable reason and the client is waiting to rejoin.
func (c *Client) RejoinNeeded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejoinNeeded
}

// Join performs the new connection request (paper step 2): the participant
// types the agent URL into the address bar, receives the initial page
// containing Ajax-Snippet, and the channel is established.
func (c *Client) Join() error {
	url := c.agentURL()
	status, h, err := c.doc.join(url)
	if err != nil {
		return fmt.Errorf("rcb-snippet: join %s: %w", url, err)
	}
	if status != 200 {
		// The agent moved under us even for joining: follow the relocation
		// on the next Rejoin attempt.
		cs := headerCloseSignal(h)
		return c.closed("join "+url, cs, status, cs.reason == CloseMoved)
	}
	c.mu.Lock()
	c.joined = true
	c.mu.Unlock()
	return nil
}

// Rejoin re-registers with the agent and resets sync state so the next
// poll fetches a full snapshot — the recovery path after a retryable close
// reason (agent restart, stale-reader kick, expired identity). The outbox
// survives: unconfirmed actions are re-sent under the same (CID, CSeq)
// stamps and the agent's replay filter keeps delivery exactly-once.
//
// A pending Rcb-Relocate address is consumed here, exactly once: the join
// goes to the new agent, and on failure the client falls back to the
// address it was using before (where a MOVED answer may hand it a fresh
// relocation — chained handovers converge the same way).
func (c *Client) Rejoin() error {
	c.mu.Lock()
	wasJoined := c.joined
	relocated := false
	if c.relocateTo != "" {
		c.prevAgentURL = c.agentURLLocked()
		c.curAgentURL = c.relocateTo
		c.relocateTo = ""
		relocated = true
	}
	c.mu.Unlock()
	if err := c.Join(); err != nil {
		if relocated {
			c.mu.Lock()
			// The relocation target refused us: fall back to the previous
			// agent rather than stranding the session on a dead address.
			c.curAgentURL = c.prevAgentURL
			c.mu.Unlock()
		}
		return err
	}
	c.mu.Lock()
	if relocated {
		c.stats.Relocates++
	}
	c.docTime = 0
	c.rejoinNeeded = false
	c.agentClosing = false
	// A fresh identity deserves a fresh upgrade attempt: after a relocation
	// the new agent has never refused this client a channel.
	c.duplexUntil = time.Time{}
	_, join := c.backoffsLocked()
	c.duplexBackoff.Reset()
	join.Reset()
	if wasJoined {
		c.stats.Rejoins++
	}
	c.mu.Unlock()
	c.doc.reset()
	return nil
}

// headerCloseSignal reads the close-reason headers of a refused answer:
// the close frame's payload in header form.
func headerCloseSignal(h httpwire.Header) closeSignal {
	return closeSignal{
		reason:   ParseCloseReason(h.Get(CloseReasonHeader)),
		retry:    ParseRetryAfter(h.Get(RetryAfterHeader)),
		relocate: h.Get(RelocateHeader),
	}
}

// closed is the one route for a close signal, whether it came as a refused
// answer's headers or as a channel's close frame: it records the reason,
// the retry hint and the relocation, schedules a rejoin when the
// transport's rule asks for one, and returns the typed error — a
// CloseError, or a BareStatusError for a refusal that named no reason.
func (c *Client) closed(op string, cs closeSignal, status int, rejoin bool) error {
	c.mu.Lock()
	if cs.retry > 0 {
		// A server-assigned interval on a terminal answer is the floor for
		// the retry delay, exactly as on shed responses.
		c.retryAfter = cs.retry
	}
	if cs.reason != CloseNone {
		c.stats.LastCloseReason = cs.reason
		if cs.reason == CloseMoved && cs.relocate != "" {
			c.relocateTo = normalizeAgentURL(cs.relocate)
		}
		c.rejoinNeeded = c.rejoinNeeded || rejoin
	}
	c.mu.Unlock()
	return refusal(op, cs, status)
}

// refusal builds the typed error for a refused exchange.
func refusal(op string, cs closeSignal, status int) error {
	if cs.reason == CloseNone {
		return fmt.Errorf("rcb-snippet: %s: %w", op, &BareStatusError{Status: status})
	}
	return fmt.Errorf("rcb-snippet: %s: %w", op,
		&CloseError{Reason: cs.reason, Status: status, Relocate: cs.relocate})
}

// QueueAction adds an action to the outbox, which every transport sends
// from in CSeq order, and sends it at once where sendActions can; otherwise
// it rides the next poll (paper §4.2.1: the POST method is used "so that
// action information of a co-browsing participant can be directly
// piggybacked"). Delivery is at-least-once on the wire and exactly-once in
// effect through the agent's (CID, CSeq) replay filter.
func (c *Client) QueueAction(act Action) {
	c.mu.Lock()
	c.outboxLocked().Add(act)
	c.mu.Unlock()
	c.sendActions()
}

// clientSeq distinguishes auto-generated client IDs within a process.
var clientSeq atomic.Int64

// outboxLocked returns the outbox, first fixing its replay-filter client id
// (ClientID, or an auto-generated one) if no action was stamped yet.
func (c *Client) outboxLocked() *Outbox {
	if c.out.CID == "" {
		c.out.CID = c.ClientID
		if c.out.CID == "" {
			c.out.CID = "c" + strconv.FormatInt(time.Now().UnixNano(), 36) +
				"-" + strconv.FormatInt(clientSeq.Add(1), 10)
		}
	}
	return &c.out
}

// backoffsLocked lazily builds the three retry schedules; separate
// instances, because a flapping join must not inflate poll retry delays
// (and vice versa). The duplex schedule paces re-upgrade attempts while the
// client rides its long-poll fallback.
func (c *Client) backoffsLocked() (poll, join *Backoff) {
	if c.pollBackoff == nil {
		base := c.RetryBase
		if base <= 0 {
			base = c.PollInterval
		}
		c.pollBackoff = newBackoff(base, c.RetryMax, c.RetryRand)
		c.joinBackoff = newBackoff(base, c.RetryMax, c.RetryRand)
		c.duplexBackoff = newBackoff(base, c.RetryMax, c.RetryRand)
	}
	return c.pollBackoff, c.joinBackoff
}

// request builds a form POST to target: signed when the session has a key,
// carrying the identity cookie of the agent currently served.
func (c *Client) request(target string, fields []httpwire.FormField) *httpwire.Request {
	body := httpwire.AppendForm(make([]byte, 0, 64), fields)
	if c.auth != nil {
		target = c.auth.Sign("POST", target, body)
	}
	req := httpwire.NewRequest("POST", target)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if ck := c.doc.cookie(c.agentURL()); ck != "" {
		req.Header.Set("Cookie", ck)
	}
	req.Body = body
	return req
}

// lastParkDenied reports whether the most recent poll asked to park and was
// refused (answered instantly empty). Run falls back to interval pacing
// when it holds, so a long-poll loop cannot spin at network speed against
// an agent whose push channel has been closed but whose server still
// serves.
func (c *Client) lastParkDenied() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parkDenied
}

// agentURL returns the URL of the agent currently serving this client:
// AgentURL until a relocation, the followed Rcb-Relocate address after.
func (c *Client) agentURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agentURLLocked()
}

func (c *Client) agentURLLocked() string {
	if c.curAgentURL == "" {
		c.curAgentURL = c.AgentURL
	}
	return c.curAgentURL
}

// agentAddr resolves and returns the agent dial address, shared by the
// polling and channel paths. The result is cached per agent
// URL and recomputed when a relocation changes it.
func (c *Client) agentAddr() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	url := c.agentURLLocked()
	if url != c.pollAddrFor {
		c.pollAddr, c.pollAddrErr = browser.AddrOf(url + "/")
		c.pollAddrFor = url
	}
	return c.pollAddr, c.pollAddrErr
}

// normalizeAgentURL turns a bare Rcb-Relocate address into an agent URL.
func normalizeAgentURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// longPollWait resolves the hang to request per poll: 0 in interval mode.
// A duplex client asks for the hang too — its polls are the long-poll
// fallback rung of the degradation ladder.
func (c *Client) longPollWait() time.Duration {
	if c.Delivery == DeliveryInterval {
		return 0
	}
	if c.LongPollWait > 0 {
		return c.LongPollWait
	}
	return DefaultLongPollWait
}

// PollOnce sends one Ajax polling request and processes the response per
// Figure 5. It reports whether new document content was applied. In
// long-poll mode the request asks the agent to park it (wait field), so the
// call may block for up to LongPollWait before returning an empty result.
// Every answer on the connection is read and applied in write order: first
// those of action polls QueueAction wrote since the last call, then this
// poll's, then those of action polls written while it hangs — each of which
// ends the park ahead of it and parks in its place, so PollOnce returns
// when the last park is answered, with no second one written. An action
// poll written since the last call asked for the hang too: when its answer
// installed a document, that is this call's park answered; otherwise
// PollOnce parks a poll of its own, so a call that applies nothing has
// seen everything the agent held when it began. Every poll carries a read
// deadline longPollReadSlack past the hang it asked for, so a silent agent
// can strand neither a parked nor an interval poll.
func (c *Client) PollOnce() (updated bool, err error) {
	c.mu.Lock()
	c.parkDenied = false
	c.agentClosing = false
	c.retryAfter = 0
	c.mu.Unlock()
	if updated, err = c.readPolls(); err != nil || updated {
		return updated, err
	}
	c.sendMu.Lock()
	err = c.writePoll(false)
	c.sendMu.Unlock()
	if err != nil {
		return false, err
	}
	return c.readPolls()
}

// pendingPoll is one poll written whose answer is not read yet.
type pendingPoll struct {
	x     *httpwire.Exchange
	ts    int64
	wait  time.Duration
	batch []Action
}

// sendActions sends the outbox's unsent tail at once: as an ACTIONS frame
// on a live channel, or in long-poll mode (and duplex falling back to it)
// as an action poll written on the connection the parked poll holds. No
// action poll goes out in interval mode, before a join, while a rejoin is
// due, while held, or while an action poll is already in flight behind the
// park.
func (c *Client) sendActions() {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	if ch := c.channel; ch != nil {
		batch := c.out.Take()
		c.mu.Unlock()
		c.writeActions(ch, batch)
		return
	}
	hanging := c.Delivery == DeliveryLongPoll ||
		c.Delivery == DeliveryDuplex && c.duplexUntil.After(time.Now())
	poll := hanging && c.joined && !c.rejoinNeeded && !c.held && c.unanswered <= 1
	c.mu.Unlock()
	if poll {
		_ = c.writePoll(true)
	}
}

// writePoll writes the outbox's unsent tail, with the acknowledged ts, as
// one poll whose answer readPolls reads; outside interval mode it asks for
// the long-poll hang, actions or not. The agent merges the actions before it
// parks the poll, so a parked action poll whose exchange later fails
// replays actions the host already applied; the agent's (CID, CSeq) filter
// drops those. An action poll with an empty tail writes nothing. The caller
// holds sendMu.
func (c *Client) writePoll(action bool) error {
	addr, err := c.agentAddr()
	if err != nil {
		return err
	}
	c.mu.Lock()
	ts := c.docTime
	batch := c.out.Take()
	if action && len(batch) == 0 {
		c.mu.Unlock()
		return nil
	}
	c.stats.Polls++
	c.stats.ActionsSent += int64(len(batch))
	c.mu.Unlock()

	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(ts, 10)}}
	if !c.DisableDelta && ts > 0 {
		// Advertise delta support once a baseline exists; the agent still
		// decides per response whether a delta is available and worthwhile.
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	if len(batch) > 0 {
		fields = append(fields, httpwire.FormField{Name: "actions", Value: EncodeActions(batch)})
	}
	wait := c.longPollWait()
	if wait > 0 {
		fields = append(fields, httpwire.FormField{Name: "wait", Value: strconv.FormatInt(wait.Milliseconds(), 10)})
	}
	x, err := c.http.Send(addr, c.request("/poll", fields))
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.out.Rewind()
		c.stats.PollFailures++
		c.held = true
		return fmt.Errorf("rcb-snippet: poll: %w", err)
	}
	c.unanswered++
	c.polls = append(c.polls, pendingPoll{x: x, ts: ts, wait: wait, batch: batch})
	return nil
}

// readPolls reads and applies the answer of every poll written so far, in
// write order, including polls written while it runs, and reports whether
// any installed a document. After each healthy answer it sends the outbox
// tail held back behind the action poll in flight. It returns the first
// failure; every failed poll rewinds the outbox.
func (c *Client) readPolls() (updated bool, err error) {
	for {
		c.mu.Lock()
		if len(c.polls) == 0 {
			c.mu.Unlock()
			return updated, err
		}
		p := c.polls[0]
		c.polls = slices.Delete(c.polls, 0, 1)
		c.mu.Unlock()
		u, perr := c.answer(p)
		updated = updated || u
		if err == nil {
			err = perr
		}
		if perr == nil {
			c.sendActions()
		}
	}
}

// answer reads one poll's answer and handles it.
func (c *Client) answer(p pendingPoll) (bool, error) {
	resp, err := p.x.Read(p.wait + longPollReadSlack)
	c.mu.Lock()
	c.unanswered--
	c.held = err != nil || resp.StatusCode != 200
	if c.held {
		// A failed poll rewinds the outbox so interaction is not lost on a
		// transient drop. Replays of actions the agent did merge before the
		// failure are absorbed by its (CID, CSeq) filter.
		c.out.Rewind()
		c.stats.PollFailures++
	} else {
		// A 200 means the agent merged the form's actions before answering.
		c.out.AckBatch(p.batch)
	}
	c.mu.Unlock()
	if err != nil {
		return false, fmt.Errorf("rcb-snippet: poll: %w", err)
	}
	if resp.StatusCode != 200 {
		cs := headerCloseSignal(resp.Header)
		return false, c.closed("poll", cs, resp.StatusCode, cs.reason.Retryable())
	}
	// "If RCB-Agent indicates no new content with an empty response
	// content, Ajax-Snippet simply ... send[s] a new polling request after a
	// specified time interval."
	if len(resp.Body) == 0 {
		// An empty answer refuses the park only when the agent marks it:
		// every deliberate refusal carries Rcb-Retry-After (shed ladder,
		// parked-poll cap) or AGENT_CLOSING (hub closed). An unmarked one
		// is a hang that timed out, a park a newer poll superseded, or a
		// spurious wake — a poll that parked at a version whose change
		// notification was still on its way — and either way the right
		// move is to park again at once; how fast it arrived says nothing.
		cs := headerCloseSignal(resp.Header)
		closing := cs.reason == CloseAgentClosing
		c.mu.Lock()
		c.stats.EmptyPolls++
		c.parkDenied = c.parkDenied || p.wait > 0 && (closing || cs.retry > 0)
		c.agentClosing = c.agentClosing || closing
		if closing {
			c.stats.LastCloseReason = CloseAgentClosing
		}
		c.retryAfter = max(c.retryAfter, cs.retry)
		c.mu.Unlock()
		return false, nil
	}
	return c.content(resp.Body, p.ts)
}

// content handles one message — a poll answer's body or a channel frame's
// payload, answering a request that acknowledged ts — and reports whether
// the document advanced. The client reads the header itself: a message
// without a document only mirrors actions, so its docTime (the client's own
// ts echoed) is not adopted; and a delta must patch exactly the docTime ts
// the client acknowledged, the multi-version ring's contract, so one that
// does not still mirrors its actions but installs nothing. When the client
// no longer holds ts — an earlier answer on the pipelined connection
// installed a newer document, or a failure reset it — the message installs
// only if it is a full snapshot newer than what the client holds, and is
// otherwise mirror-only, with no error. Any failure — codec error, base
// mismatch, patch that does not resolve — forgets the acknowledged docTime,
// so the next exchange fetches a full snapshot: the replica can render
// stale for one round trip but can never stay diverged.
func (c *Client) content(body []byte, ts int64) (bool, error) {
	m, err := readMsgHeader(body)
	if err == nil {
		mismatch := m.delta && m.base != ts
		held := c.DocTime()
		if held != ts {
			m.hasDoc = m.hasDoc && !m.delta && m.docTime > held
			mismatch = false
		}
		if mismatch {
			m.hasDoc = false
		}
		err = c.doc.apply(body, m)
		if err == nil && mismatch {
			err = fmt.Errorf("%w: base %d, acknowledged %d", ErrDeltaBase, m.base, ts)
		}
	}
	if err != nil {
		c.desync()
		return false, fmt.Errorf("rcb-snippet: %w (resyncing)", err)
	}
	if !m.hasDoc {
		return false, nil
	}
	c.mu.Lock()
	c.docTime = m.docTime
	c.stats.ContentPolls++
	if m.delta {
		c.stats.DeltaPolls++
	}
	c.mu.Unlock()
	return true, nil
}

// desync forgets the acknowledged document timestamp: the next poll reports
// ts=0, which the agent always answers with a full snapshot.
func (c *Client) desync() {
	c.mu.Lock()
	c.docTime = 0
	c.mu.Unlock()
	c.doc.reset()
}

// Run drives the polling loop until stop is closed (paper: "The first Ajax
// request is sent after the initial HTML page is loaded ... each following
// Ajax request is triggered after the response to the previous one is
// received"). A client that never joined joins first. In interval mode
// (default) the loop sleeps PollInterval between polls; in long-poll mode it
// re-issues the next request immediately — the agent provides the pacing by
// parking the request.
//
// Failure handling is the unified backoff ladder: consecutive poll errors
// (and AgentClosing answers) double the retry delay from RetryBase up to
// RetryMax with jitter, resetting the moment a poll succeeds; a
// server-assigned Rcb-Retry-After is honored as the floor. When the agent
// closes the session with a retryable reason (restart, stale-reader kick,
// relocation), Run rejoins and resyncs automatically — a
// non-retryable close (LEAVE, KICKED) ends the loop, the one error that
// genuinely means the session is over. Other errors are delivered to errf
// when non-nil and the loop continues — a dropped poll must not end the
// session (PollOnce rewinds the outbox, so its actions ride the next one).
func (c *Client) Run(stop <-chan struct{}, errf func(error)) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = time.Second
	}
	report := func(err error) bool {
		if err != nil && errf != nil {
			errf(err)
		}
		r := CloseReasonOf(err)
		return r != CloseNone && !r.Retryable()
	}
	// delay is the pause before the next request: none for the first poll
	// after page load, nor after a healthy long-poll completion. Only a
	// positive one waits on the timer.
	var delay time.Duration
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		if delay > 0 {
			resetTimer(timer, delay)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		}
		// A stop that raced the timer or the last exchange wins: a stopped
		// loop must not issue (and perhaps park) one more request.
		select {
		case <-stop:
			return
		default:
		}
		c.mu.Lock()
		join := !c.joined || c.rejoinNeeded
		c.mu.Unlock()
		if join {
			if err := c.Rejoin(); err != nil {
				if report(err) {
					return // the agent refused re-admission for good
				}
				c.mu.Lock()
				_, join := c.backoffsLocked()
				delay = join.Next()
				if c.retryAfter > delay {
					delay = c.retryAfter // server-assigned pacing floors the rejoin delay too
				}
				c.mu.Unlock()
				continue
			}
		}
		if c.duplexEligible() {
			if report(c.DuplexOnce(stop)) {
				return // deliberate removal over the channel: session over
			}
			// The channel ended (refused, lost, or closed with a reason);
			// the next iteration rejoins if needed, or rides the long-poll
			// fallback until duplexUntil re-admits an upgrade attempt.
			delay = c.duplexDelay()
			continue
		}
		_, err := c.PollOnce()
		if report(err) {
			return // deliberate removal (LEAVE/KICKED): the session is over
		}
		delay = c.runDelay(err, interval)
	}
}

// runDelay picks the pause before the next polling request: zero after a
// healthy long-poll completion (the agent paces by parking), the jittered
// poll backoff after a failure or an AgentClosing answer, the server's
// Rcb-Retry-After when it exceeds the local choice, and PollInterval for
// everything else (interval mode, park denials).
func (c *Client) runDelay(err error, interval time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	poll, _ := c.backoffsLocked()
	var d time.Duration
	switch {
	case err != nil, c.agentClosing:
		d = poll.Next()
	default:
		poll.Reset()
		if c.Delivery != DeliveryInterval && !c.parkDenied {
			d = 0 // hanging GET completed; re-park immediately
		} else {
			d = interval
		}
	}
	if c.retryAfter > d {
		d = c.retryAfter // the agent asked for explicit pacing (shed ladder)
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
