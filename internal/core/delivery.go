package core

// The delivery hub: the one subscriber set behind RCB-Agent's push paths.
//
// The paper's protocol answers every polling request immediately — "if no
// new content needs to be sent back, RCB-Agent sends a response with empty
// content ... to avoid hanging requests" (§4.1.1) — which makes the polling
// interval the staleness floor. The hub inverts that trade. A subscriber is
// either a parked poll (httpwire.AsyncHandler), completed once by fulfill,
// or a persistent channel (channel.go), completed per event by waking its
// writer and finally by requestClose. Every event reaches both kinds with
// one call under one lock: a document change (notifyAll), a mirror action
// in the outbox (notifyPID), a disconnect, or shutdown (close). A parked
// poll also ends when a configurable maximum hang elapses; timeouts degrade
// exactly to the paper's empty response, so a long-poll client is never
// worse off than an interval one.
//
// Correctness hinges on closing the check-then-park window: between a
// poll's "nothing new" check and its registration, a document change or
// broadcast could slip by and the waiter would sleep through its own
// wake-up. The hub therefore keeps monotonic notification counters (one
// global, one per participant); a poll snapshots them before its final
// check and park refuses registration when either counter moved, forcing
// the caller to re-check. Channel writers need none: they re-check on every
// wake their one-slot notify channel coalesces.

import (
	"sync"
	"time"
)

// pollWaiter is one parked polling request: the participant it belongs to,
// the timestamp it reported, and the responder that completes the hanging
// HTTP exchange. Ownership of the response is decided by hub-map presence:
// whoever removes the waiter from the hub (notify, timeout, supersede, or
// close) must respond, and nobody else may.
type pollWaiter struct {
	pid     string
	ts      int64
	deltaOK bool // the parked request opted into deltaContent responses
	fulfill func(reply *pollReply)
	timer   *time.Timer
}

// pollReply tells a woken waiter why it woke, so the fulfiller can choose
// between re-running the content check and degrading to a fixed response.
type pollReply struct {
	timedOut bool
	closed   bool
	// superseded: a newer poll from the same participant arrived, and this
	// one ends with the plain empty response — no content check, no drain.
	superseded bool
}

// hubSnapshot is the pair of notification counters a poll observed before
// its final no-new-content check.
type hubSnapshot struct {
	global uint64
	pid    uint64
}

// deliveryHub holds every subscriber waiting on delivery events — parked
// long-polls and attached channels — and the notification counters that
// close the check-then-park race. All methods are safe for concurrent use.
type deliveryHub struct {
	mu     sync.Mutex
	closed bool
	global uint64
	// pidSeqs holds per-participant notification counters. Entries are
	// kept after disconnect (a few bytes per participant ever seen) so a
	// racing park cannot mistake a reset counter for "no event".
	pidSeqs map[string]uint64
	// parked holds the parked polls, at most one per participant: a newer
	// poll supersedes the older (supersede, park).
	parked map[string]*pollWaiter
	// chans holds the attached persistent channels, at most one per
	// participant.
	chans map[string]*agentChannel

	// fanouts counts document-change wake rounds that woke at least one
	// parked poll.
	fanouts int64

	// preWake, when set, runs between collecting a wake round's waiters and
	// completing them — the window where the content and deltas the woken
	// fleet and the attached channels are about to request are built once.
	// Installed at construction, never mutated afterwards, so reads need no
	// lock. It runs on the round's own goroutine, off every request and
	// host-mutation path.
	preWake func(woken []*pollWaiter, chans []*agentChannel)
}

func newDeliveryHub() *deliveryHub {
	return &deliveryHub{
		pidSeqs: make(map[string]uint64),
		parked:  make(map[string]*pollWaiter),
		chans:   make(map[string]*agentChannel),
	}
}

// snapshot records the counters for pid ahead of a no-new-content check.
func (h *deliveryHub) snapshot(pid string) hubSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return hubSnapshot{global: h.global, pid: h.pidSeqs[pid]}
}

// park registers w unless an event arrived after snap was taken. It returns
// (parked, retry): (true, _) means w is registered and its owner will
// respond later; (false, true) means an event slipped in and the caller
// must re-run its content check; (false, false) means the hub is closed and
// the caller should answer immediately, interval-style. A poll of the same
// participant still parked — one that raced past supersede — is superseded.
func (h *deliveryHub) park(w *pollWaiter, snap hubSnapshot, maxWait time.Duration) (parked, retry bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false, false
	}
	if h.global != snap.global || h.pidSeqs[w.pid] != snap.pid {
		return false, true
	}
	if old := h.takeLocked(w.pid); old != nil {
		go old.fulfill(&pollReply{superseded: true})
	}
	h.parked[w.pid] = w
	// The timeout path claims the waiter through the same remove() token
	// as every other wake, so a racing notify and timer fire resolve to
	// exactly one response. AfterFunc's callback cannot run before this
	// assignment is visible: it immediately contends on h.mu, which we
	// hold until park returns.
	w.timer = time.AfterFunc(maxWait, func() {
		if h.remove(w) {
			w.fulfill(&pollReply{timedOut: true})
		}
	})
	return true, false
}

// remove unregisters w, reporting whether the caller won ownership of the
// response (exactly one remover does).
func (h *deliveryHub) remove(w *pollWaiter) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.parked[w.pid] != w {
		return false
	}
	delete(h.parked, w.pid)
	return true
}

// supersede answers pid's parked poll, if any, with the plain empty
// response: a newer poll from the participant has arrived, on the same
// connection (a pipelined action poll, which takes the park over: answers
// go out in request order, so the old park must end for the new poll's to
// go out) or on another (the old one is a ghost).
// The answer runs no content check and drains no mirror queue; the newer
// poll carries whatever there is. fulfill must not block: the caller may
// hold the serve/state barrier.
func (h *deliveryHub) supersede(pid string) {
	h.mu.Lock()
	w := h.takeLocked(pid)
	h.mu.Unlock()
	if w != nil {
		w.fulfill(&pollReply{superseded: true})
	}
}

// takeLocked unregisters pid's parked poll, if any, and stops its timeout;
// the caller owns its answer. Callers hold h.mu.
func (h *deliveryHub) takeLocked(pid string) *pollWaiter {
	w := h.parked[pid]
	if w != nil {
		delete(h.parked, pid)
		w.timer.Stop()
	}
	return w
}

// attach installs ch as its participant's channel. A newer upgrade replaces
// an older channel (typically a client re-upgrading after a fallback, its
// old socket half-dead); the replaced one is torn down silently.
func (h *deliveryHub) attach(ch *agentChannel) {
	h.mu.Lock()
	old := h.chans[ch.pid]
	h.chans[ch.pid] = ch
	h.mu.Unlock()
	if old != nil {
		old.shutdown()
	}
}

// detach removes ch unless a newer channel already replaced it.
func (h *deliveryHub) detach(ch *agentChannel) {
	h.mu.Lock()
	if h.chans[ch.pid] == ch {
		delete(h.chans, ch.pid)
	}
	h.mu.Unlock()
}

// counts reports the subscribers: parked polls and attached channels.
func (h *deliveryHub) counts() (polls, channels int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.parked), len(h.chans)
}

// notifyAll wakes every subscriber — a new document version exists (or is
// about to). The notification counter advances first, so a poll between
// its snapshot and its park re-checks and sees the new version. The parked
// polls are taken and answered by one wake round on its own goroutine (see
// fanOut), so the notifier (typically the host browser's mutation path)
// never blocks on content generation or socket writes. The channel writers
// are nudged after the round's goroutine is started, so the round is
// scheduled ahead of them; their cap-1 notify slots coalesce.
func (h *deliveryHub) notifyAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.global++
	if len(h.parked) > 0 {
		h.fanouts++
		go h.fanOut(h.takeAllLocked())
	}
	for _, ch := range h.chans {
		ch.wake()
	}
}

// fanOut is one wake round: warm, then answer. preWake builds the content
// and the deltas the woken waiters and the attached channels will ask for,
// once; the waiters are then completed back to back on this goroutine,
// each a cache hit handed to a non-blocking respond
// (httpwire.AsyncHandler's contract). One goroutine per round, not per
// waiter, keeps the answers from piling onto the agent's locks and
// single-flight waits and from interleaving with the readers' own work.
func (h *deliveryHub) fanOut(woken []*pollWaiter, chans []*agentChannel) {
	for _, w := range woken {
		w.timer.Stop()
	}
	if h.preWake != nil {
		h.preWake(woken, chans)
	}
	for _, w := range woken {
		w.fulfill(&pollReply{})
	}
}

// takeAllLocked detaches every parked poll and lists the attached
// channels, which stay attached. Callers hold h.mu.
func (h *deliveryHub) takeAllLocked() (woken []*pollWaiter, chans []*agentChannel) {
	for pid, w := range h.parked {
		woken = append(woken, w)
		delete(h.parked, pid)
	}
	chans = make([]*agentChannel, 0, len(h.chans))
	for _, ch := range h.chans {
		chans = append(chans, ch)
	}
	return woken, chans
}

// wakeFanouts reports how many global wake rounds actually woke waiters.
func (h *deliveryHub) wakeFanouts() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fanouts
}

// notifyPID wakes the subscribers of one participant — a mirror action
// landed in its outbox.
func (h *deliveryHub) notifyPID(pid string) { h.wakePID(pid, nil) }

// disconnect tells pid's subscribers it was removed: its parked poll is
// answered (its re-check finds the participant gone and carries the
// remembered reason) and its channel is closed with cs.
func (h *deliveryHub) disconnect(pid string, cs closeSignal) { h.wakePID(pid, &cs) }

// wakePID answers pid's parked poll and nudges its channel: a plain wake
// when cs is nil, an orderly close with cs otherwise.
func (h *deliveryHub) wakePID(pid string, cs *closeSignal) {
	h.mu.Lock()
	h.pidSeqs[pid]++
	w := h.takeLocked(pid)
	ch := h.chans[pid]
	h.mu.Unlock()
	if w != nil {
		go w.fulfill(&pollReply{})
	}
	switch {
	case ch == nil:
	case cs == nil:
		ch.wake()
	default:
		ch.requestClose(*cs)
	}
}

// close answers every parked poll with the shutdown reply, sends every
// attached channel an AGENT_CLOSING close, and refuses future parks. Polls
// arriving afterwards are answered immediately, interval-style, so a closed
// agent still speaks the paper's protocol.
func (h *deliveryHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	woken, chans := h.takeAllLocked()
	h.mu.Unlock()
	for _, w := range woken {
		w.timer.Stop()
		w.fulfill(&pollReply{closed: true})
	}
	for _, ch := range chans {
		ch.requestClose(closeSignal{reason: CloseAgentClosing})
	}
}
