package core

// The persistent full-duplex channel: one framed connection replacing the
// long-poll request/response pair. A participant upgrades a normal HMAC-verified
// POST /channel exchange into a frame stream (httpwire frame codec) and the
// agent attaches the connection to the delivery hub as a persistent
// subscriber, beside the parked polls: a build landing wakes the channel's
// writer, which pushes the shared prepared/delta bytes the moment they
// exist — no park/wake counters, no per-update request parse, no per-update
// HMAC (the connection was authenticated once, at the upgrade). Each
// channel's acked base picks its delta from the multi-version ring, so
// channels at different bases share the per-(base, target) encoded bytes
// rather than assuming one base. Upstream, the same socket carries action
// frames and acks in place of action-carrying polls while the channel is
// up.
//
// This file is the server half; the client half (DeliveryDuplex) lives in
// duplex.go. Both speak the frame schema below.

import (
	"bufio"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/httpwire"
)

// Frame types of the RCB channel protocol. The httpwire frame codec treats
// them as opaque bytes; this is where they gain meaning.
const (
	// FrameContent carries a full newContent XML message (server→client).
	FrameContent byte = 1
	// FrameDelta carries a deltaContent XML message (server→client).
	FrameDelta byte = 2
	// FrameActions carries an EncodeActions payload (client→server) — the
	// upstream that replaces action-carrying polls.
	FrameActions byte = 3
	// FrameAck acknowledges an applied docTime, decimal-encoded
	// (client→server). An ack of 0 reports a failed apply: the client
	// desynced and the server must resend the full snapshot.
	FrameAck byte = 4
	// FrameActionAck confirms merged actions (server→client): the payload is
	// the highest CSeq of the ACTIONS frame just merged. The client writes
	// frames in CSeq order on one socket, so the ack is cumulative and the
	// client drops every outbox entry up to it.
	FrameActionAck byte = 5
	// FramePing/FramePong are the keepalive probe pair; the payload is
	// echoed back verbatim.
	FramePing byte = 6
	FramePong byte = 7
	// FrameClose announces an orderly teardown. The payload is form-encoded:
	// reason=<CloseReason name>[&retry=<ms>][&relocate=<addr>] — the frame
	// equivalent of the Rcb-Close-Reason response headers.
	FrameClose byte = 8
)

// closeSignal is one close with its reason and hints, in either encoding:
// the payload of the FrameClose a channel writer sends before tearing down,
// or the headers of a terminal HTTP answer (response).
type closeSignal struct {
	reason   CloseReason
	retry    time.Duration
	relocate string
}

// encodeCloseSignal renders the FrameClose payload.
func encodeCloseSignal(cs closeSignal) []byte {
	fields := []httpwire.FormField{{Name: "reason", Value: cs.reason.String()}}
	if cs.retry > 0 {
		fields = append(fields, httpwire.FormField{Name: "retry", Value: strconv.FormatInt(cs.retry.Milliseconds(), 10)})
	}
	if cs.relocate != "" {
		fields = append(fields, httpwire.FormField{Name: "relocate", Value: cs.relocate})
	}
	return httpwire.AppendForm(make([]byte, 0, 64), fields)
}

// response renders cs as a terminal HTTP answer: the reason's status and
// Rcb-Close-Reason, plus Rcb-Relocate and Rcb-Retry-After when set.
func (cs closeSignal) response() *httpwire.Response {
	resp := httpwire.NewResponse(cs.reason.StatusCode(), "text/plain",
		[]byte("session closed: "+cs.reason.String()+"\n"))
	resp.Header.Set(CloseReasonHeader, cs.reason.String())
	if cs.relocate != "" {
		resp.Header.Set(RelocateHeader, cs.relocate)
	}
	if cs.retry > 0 {
		resp.Header.Set(RetryAfterHeader, strconv.FormatInt(cs.retry.Milliseconds(), 10))
	}
	return resp
}

// decodeCloseSignal parses a FrameClose payload. Unknown reasons come back
// as CloseUnknown — a protocol-violating bare close never reads as "no
// reason given".
func decodeCloseSignal(payload []byte) closeSignal {
	var cs closeSignal
	for _, f := range httpwire.ParseForm(string(payload)) {
		switch f.Name {
		case "reason":
			cs.reason = ParseCloseReason(f.Value)
		case "retry":
			cs.retry = ParseRetryAfter(f.Value)
		case "relocate":
			cs.relocate = f.Value
		}
	}
	if cs.reason == CloseNone {
		cs.reason = CloseUnknown
	}
	return cs
}

// agentChannel is one attached persistent channel: the server-side state
// of a participant's framed connection. The writer goroutine owns delivery
// (the hub's wakes land in its notify slot); the reader goroutine handles the
// upstream direction. base — the docTime the client is known to hold — is
// advanced by the writer as it sends and reset to zero by the reader when
// the client reports a failed apply (FrameAck 0), forcing a full resend.
type agentChannel struct {
	pid     string
	conn    *httpwire.ChannelConn
	deltaOK bool

	// notify has capacity 1: concurrent wake-ups coalesce into one flush
	// pass, exactly the semantics the hub's park/wake counters provide for
	// long-polls — but with no counters and no re-parse per update.
	notify chan struct{}
	// done is closed by shutdown; it unblocks the writer's wait.
	done     chan struct{}
	doneOnce sync.Once

	mu      sync.Mutex
	base    int64
	pending *closeSignal // close-with-reason awaiting the writer

	// Quiescence counters for the test harnesses: framesWritten counts
	// frames committed to the socket (bumped before each write), and
	// wakesPending the wakes queued in notify or being flushed. A channel
	// whose wakesPending is zero and whose client has read framesWritten
	// frames has nothing in flight.
	framesWritten atomic.Int64
	wakesPending  atomic.Int64
}

// wake nudges the writer; a wake while one is already queued coalesces.
func (ch *agentChannel) wake() {
	ch.wakesPending.Add(1)
	select {
	case ch.notify <- struct{}{}:
	default:
		ch.wakesPending.Add(-1)
	}
}

// writeFrame writes one frame to the channel and counts it.
func (a *Agent) writeFrame(ch *agentChannel, f httpwire.Frame) error {
	ch.framesWritten.Add(1)
	err := ch.conn.WriteFrame(f)
	if err == nil {
		a.framesOut.Add(1)
	}
	return err
}

// shutdown tears the channel down: unblocks both loops and closes the
// socket. Idempotent, callable from any goroutine.
func (ch *agentChannel) shutdown() {
	ch.doneOnce.Do(func() {
		close(ch.done)
		ch.conn.Close()
	})
}

// requestClose schedules an orderly close: the writer sends a FrameClose
// with the first reason recorded, then tears down. Later reasons lose —
// whoever closed first named the cause.
func (ch *agentChannel) requestClose(cs closeSignal) {
	ch.mu.Lock()
	if ch.pending == nil {
		ch.pending = &cs
	}
	ch.mu.Unlock()
	ch.wake()
}

// ChannelsOpen reports how many persistent channels are currently attached —
// the observable duplex tests and benchmarks synchronize on.
func (a *Agent) ChannelsOpen() int64 {
	_, n := a.hub.counts()
	return int64(n)
}

// FramesOut reports frames written to channels (content, deltas, acks,
// pongs, closes).
func (a *Agent) FramesOut() int64 { return a.framesOut.Load() }

// serveChannelUpgrade answers POST /channel: admission control, then a 101
// whose Hijack callback runs the channel session on the connection's own
// goroutine. The request is authenticated by the caller (route), and the
// relocation fence was already consulted by ServeWire — an upgrade against
// a moved agent never reaches here. The request body mirrors a poll's: the
// client's acknowledged ts (so an up-to-date client is not resent content
// it holds) and the delta opt-in.
func (a *Agent) serveChannelUpgrade(req *httpwire.Request) *httpwire.Response {
	a.maybeEvalLoad()
	if a.DisableChannel || a.ShedLevel() >= ShedInterval || a.handoverPending() {
		// The channel is precisely the per-client state the interval step
		// exists to shed; refuse with the same retry-carrying answer a
		// refused park gets, and the client degrades to long-poll.
		return closeSignal{reason: CloseOvercommitted, retry: a.shedRetryAfter()}.response()
	}
	f := parsePollForm(req)
	if p, why := a.sessions.lookup(f.pid); p == nil {
		return closeResponse(why)
	}
	resp := httpwire.NewResponse(101, "", nil)
	resp.Header.Set("Upgrade", "rcb-channel/1")
	resp.Header.Set("Connection", "Upgrade")
	resp.Hijack = func(conn net.Conn, br *bufio.Reader) {
		a.runChannel(httpwire.NewChannelConn(conn, br), f.pid, f.ts, f.deltaOK)
	}
	a.logf("rcb-agent: participant %s upgraded to persistent channel", f.pid)
	return resp
}

// runChannel owns one upgraded connection for its lifetime: attach,
// spawn the reader, drive the writer, tear down. Runs on the server
// connection's goroutine (the Hijack contract); returning closes the conn.
func (a *Agent) runChannel(conn *httpwire.ChannelConn, pid string, ts int64, deltaOK bool) {
	ch := &agentChannel{
		pid:     pid,
		conn:    conn,
		deltaOK: deltaOK,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		base:    ts,
	}
	a.hub.attach(ch)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		a.channelReader(ch)
	}()
	// Immediate first pass: anything newer than the client's acknowledged
	// ts is pushed before the first document change lands.
	ch.wake()
	a.channelWriter(ch)
	ch.shutdown()
	<-readerDone
	a.hub.detach(ch)
	a.logf("rcb-agent: participant %s channel detached", pid)
}

// channelWriter is the delivery loop: sleep on the notify slot, flush
// whatever is pending, repeat until the channel dies.
func (a *Agent) channelWriter(ch *agentChannel) {
	for {
		select {
		case <-ch.done:
			return
		case <-ch.notify:
		}
		ok := a.channelFlush(ch)
		ch.wakesPending.Add(-1)
		if !ok {
			return
		}
	}
}

// channelFlush pushes pending state down one channel until nothing is left,
// returning false when the channel must tear down. Delivery decisions run
// under the serve/state barrier's read side, exactly like a poll's — a
// handover fence waits out an in-flight flush — but the socket write
// happens outside it, like a poll response's.
func (a *Agent) channelFlush(ch *agentChannel) bool {
	for {
		ch.mu.Lock()
		pending := ch.pending
		base := ch.base
		ch.mu.Unlock()
		if pending != nil {
			a.writeClose(ch, *pending)
			return false
		}
		a.smu.RLock()
		if a.relocatedTo != "" {
			// Handover completed under us: tell the client where the session
			// went over the live channel — the frame analogue of the MOVED
			// response — so it rejoins the new agent directly.
			cs := a.movedSignal()
			a.smu.RUnlock()
			a.writeClose(ch, cs)
			return false
		}
		a.maybeEvalLoad()
		if a.ShedLevel() >= ShedInterval {
			// Overload: shed the per-client channel state; the client falls
			// back to interval-paced polling under the same retry hint a
			// refused park carries.
			cs := closeSignal{reason: CloseOvercommitted, retry: a.shedRetryAfter()}
			a.smu.RUnlock()
			a.writeClose(ch, cs)
			return false
		}
		p, why := a.sessions.lookup(ch.pid)
		if p == nil {
			a.smu.RUnlock()
			a.writeClose(ch, closeSignal{reason: why})
			return false
		}
		out, err := a.deliver(p, base, ch.deltaOK && base > 0)
		a.smu.RUnlock()
		if err != nil {
			a.logf("rcb-agent: channel %s content generation: %v", ch.pid, err)
			// No hub wake here: it would land in this channel's own notify
			// slot and spin the writer on a persistent error.
			a.sessions.requeue(ch.pid, out.actions)
			return true // possibly transient; wait for the next wake
		}
		if !out.hasNew {
			return true
		}
		ftype := FrameContent
		if out.isDelta {
			ftype = FrameDelta
		}
		if werr := a.writeFrame(ch, httpwire.Frame{Type: ftype, Payload: out.body}); werr != nil {
			// The socket died with mirror actions already drained from the
			// outbox: put them back so the participant's recovery poll
			// delivers them — channel failure may delay an action, never
			// drop it.
			a.sessions.requeue(ch.pid, out.actions)
			a.hub.notifyPID(ch.pid)
			return false
		}
		ch.mu.Lock()
		if ch.base == base {
			// Advance only if the reader didn't reset base to 0 (FrameAck 0,
			// client desync) while this frame was being computed — a resync
			// request must win over an optimistic advance.
			ch.base = out.docTime
		}
		ch.mu.Unlock()
		// Loop: more may have become pending while the write was in flight.
	}
}

// writeClose sends the FrameClose for cs, best-effort: the channel is
// being torn down either way.
func (a *Agent) writeClose(ch *agentChannel, cs closeSignal) {
	_ = a.writeFrame(ch, httpwire.Frame{Type: FrameClose, Payload: encodeCloseSignal(cs)})
	a.logf("rcb-agent: channel %s closed: %s", ch.pid, cs.reason)
}

// channelReader drains the upstream direction: action frames, acks, pings,
// and the client's own close. A read error (peer gone, server closing the
// conn) tears the channel down silently — there is nobody left to send a
// close frame to.
func (a *Agent) channelReader(ch *agentChannel) {
	for {
		f, err := ch.conn.ReadFrame()
		if err != nil {
			ch.shutdown()
			return
		}
		switch f.Type {
		case FrameActions:
			a.channelActions(ch, string(f.Payload))
		case FrameAck:
			ts, _ := strconv.ParseInt(string(f.Payload), 10, 64)
			a.channelAck(ch, ts)
		case FramePing:
			// A failed write means the socket died; the next read ends us.
			_ = a.writeFrame(ch, httpwire.Frame{Type: FramePong, Payload: f.Payload})
		case FrameClose:
			// The client detached (degradation, shutdown). The participant
			// stays registered — a channel teardown is not a leave — and its
			// next delivery rides whatever path it reconnects on.
			ch.shutdown()
			return
		default:
			// Unknown frame type: ignore, for forward compatibility.
		}
	}
}

// channelActions merges one upstream action frame through merge, the same
// step 1 the poll path runs, so the client's resend of its
// outbox after a channel death stays exactly-once. The merged batch is
// confirmed with a FrameActionAck carrying merge's highest CSeq, which lets
// the client drop its outbox up to there.
func (a *Agent) channelActions(ch *agentChannel, payload string) {
	a.smu.RLock()
	if a.relocatedTo != "" {
		// Past the relocation fence no state may change; wake the writer so
		// it delivers the MOVED close, and let the client's outbox replay the
		// actions at the new agent.
		a.smu.RUnlock()
		ch.wake()
		return
	}
	p, why := a.sessions.lookup(ch.pid)
	if p == nil {
		a.smu.RUnlock()
		ch.requestClose(closeSignal{reason: why})
		return
	}
	maxSeq, _ := a.merge(p, payload) // a malformed frame is dropped; the channel stays
	a.smu.RUnlock()
	if maxSeq > 0 {
		buf := strconv.AppendInt(make([]byte, 0, 20), maxSeq, 10)
		// A lost ack costs only a resend the replay filter drops.
		_ = a.writeFrame(ch, httpwire.Frame{Type: FrameActionAck, Payload: buf})
	}
}

// channelAck records the client's applied docTime. A positive ack keeps the
// stale-reader ruler honest (LastDocTime advances exactly as a poll's ts
// would); an ack of zero is a desync report — reset the delivery base and
// wake the writer so the full snapshot goes out.
func (a *Agent) channelAck(ch *agentChannel, ts int64) {
	if ts <= 0 {
		ch.mu.Lock()
		ch.base = 0
		ch.mu.Unlock()
		ch.wake()
		return
	}
	if p, _ := a.sessions.lookup(ch.pid); p != nil {
		p.mu.Lock()
		p.LastDocTime = ts
		p.LastSeen = time.Now()
		p.mu.Unlock()
	}
}
