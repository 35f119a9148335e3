package core

// Client half of the persistent full-duplex channel (DeliveryDuplex). The
// server half and the frame schema live in channel.go. One DuplexOnce call
// is one channel session: upgrade, read frames until the channel ends,
// tear down. Run drives sessions back to back, degrading to the long-poll
// path between attempts — the snippet's delivery ladder is
// duplex → long-poll → interval, each rung falling back to the next and
// recovering upward when the better channel becomes available again.

import (
	"fmt"
	"strconv"
	"time"

	"rcb/internal/browser"
	"rcb/internal/httpwire"
)

// duplexUpgradeTimeout bounds the POST /channel handshake round trip; the
// endpoint answers immediately by design.
const duplexUpgradeTimeout = 5 * time.Second

// duplexPingInterval paces the client keepalive probe. Every ping provokes
// a pong, so a healthy channel delivers a frame at least this often even
// when the document is idle — which is what makes the read deadline below
// a dead-agent detector rather than a second pacing mechanism.
const duplexPingInterval = 5 * time.Second

// duplexReadTimeout is the per-read deadline: comfortably more than one
// ping interval, so it only fires when the agent stopped answering probes.
const duplexReadTimeout = 3 * duplexPingInterval

// duplexEligible reports whether Run should attempt a channel session now:
// the snippet is in duplex mode and not inside a post-failure suspension
// window (during which the long-poll fallback carries the session).
func (s *Snippet) duplexEligible() bool {
	if s.Delivery != DeliveryDuplex {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.duplexUntil.After(time.Now())
}

// suspendDuplex opens (or extends) the fallback window after a refused
// upgrade or a lost channel: upgrade attempts pause for the backoff delay —
// floored by any server-assigned retry interval — while polling carries the
// session.
func (s *Snippet) suspendDuplex() {
	s.mu.Lock()
	s.backoffsLocked()
	d := s.duplexBackoff.Next()
	if s.retryAfter > d {
		d = s.retryAfter
	}
	s.duplexUntil = time.Now().Add(d)
	s.stats.DuplexFallbacks++
	s.mu.Unlock()
}

// duplexDelay is the pause Run takes after a channel session ends: zero
// unless the agent assigned explicit pacing (a shed retry hint, a MOVED
// retry hint) — the fallback poll or the rejoin should otherwise start
// immediately.
func (s *Snippet) duplexDelay() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryAfter
}

// sendChannel writes the outbox's unsent tail to the live channel, if one
// is attached, as one ACTIONS frame. Taking and writing both happen under
// sendMu, so frames leave in CSeq order. A failed write closes the channel:
// the read loop then ends and teardown rewinds the outbox, so the actions
// ride the fallback poll or the next channel — at-least-once on the wire,
// exactly-once in effect through the agent's (CID, CSeq) filter.
func (s *Snippet) sendChannel() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	ch := s.channel
	var batch []Action
	if ch != nil {
		batch = s.out.Take()
	}
	s.mu.Unlock()
	s.writeActions(ch, batch)
}

// writeActions sends one ACTIONS frame; the caller holds sendMu.
func (s *Snippet) writeActions(ch *httpwire.ChannelConn, batch []Action) {
	if len(batch) == 0 {
		return
	}
	if ch.WriteFrame(httpwire.Frame{Type: FrameActions, Payload: []byte(EncodeActions(batch))}) != nil {
		ch.Close()
		return
	}
	s.mu.Lock()
	s.stats.DuplexActionsSent += int64(len(batch))
	s.stats.DuplexFramesOut++
	s.mu.Unlock()
}

// DuplexOnce runs one persistent-channel session: upgrade the connection,
// then read frames — content pushes, action acks, pongs, the close — until
// the channel ends. It blocks for the session's lifetime (Run calls it in
// place of a PollOnce cycle) and returns nil for orderly degradations, a
// CloseError when the agent ended the session with a reason, or the
// transport error that killed the channel. Every unconfirmed action in the
// outbox goes out in the channel's first frame; FrameActionAck confirms
// them cumulatively, and teardown rewinds whatever is still unconfirmed
// for the next transport.
func (s *Snippet) DuplexOnce(stop <-chan struct{}) error {
	addr, err := s.agentAddr()
	if err != nil {
		return err
	}
	s.mu.Lock()
	ts := s.docTime
	s.mu.Unlock()
	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(ts, 10)}}
	if !s.DisableDelta {
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	body := httpwire.AppendForm(make([]byte, 0, 64), fields)
	target := "/channel"
	if s.auth != nil {
		target = s.auth.Sign("POST", target, body)
	}
	req := httpwire.NewRequest("POST", target)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if c := s.Browser.Jar.Header(browser.HostOf(s.agentURL() + "/")); c != "" {
		req.Header.Set("Cookie", c)
	}
	req.Body = body
	ch, resp, err := s.Browser.Client.Upgrade(addr, req, duplexUpgradeTimeout)
	if err != nil {
		s.suspendDuplex()
		return fmt.Errorf("rcb-snippet: channel upgrade: %w", err)
	}
	if ch == nil {
		return s.duplexRefused(resp)
	}

	// Channel up: publish it as the dispatch target and send every
	// unconfirmed action in one frame, both under sendMu, so no dispatch can
	// put a newer CSeq on the wire ahead of the backlog.
	s.sendMu.Lock()
	s.mu.Lock()
	s.channel = ch
	s.out.Rewind()
	backlog := s.out.Take()
	s.stats.DuplexUpgrades++
	s.backoffsLocked()
	s.duplexBackoff.Reset()
	s.parkDenied = false
	s.retryAfter = 0
	s.mu.Unlock()
	s.writeActions(ch, backlog)
	s.sendMu.Unlock()

	// Keepalive and stop handling share a goroutine: pings flow while the
	// session lives; a stop closes the channel out from under the read
	// loop, after a best-effort close frame so the agent sees an orderly
	// detach rather than a dead peer.
	readerDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(duplexPingInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				_ = ch.WriteFrame(httpwire.Frame{Type: FrameClose})
				ch.Close()
				return
			case <-readerDone:
				return
			case <-ticker.C:
				if ch.WriteFrame(httpwire.Frame{Type: FramePing}) != nil {
					ch.Close()
					return
				}
				s.mu.Lock()
				s.stats.DuplexFramesOut++
				s.mu.Unlock()
			}
		}
	}()
	err = s.duplexReadLoop(ch, stop)
	close(readerDone)
	ch.Close()

	// Teardown: detach and rewind, so every unconfirmed action rides the
	// next transport in CSeq order; the replay filter drops whatever the
	// agent already merged.
	s.mu.Lock()
	if s.channel == ch {
		s.channel = nil
	}
	s.out.Rewind()
	s.mu.Unlock()
	return err
}

// duplexRefused classifies a non-101 answer to the upgrade handshake
// exactly like a close frame: its close-reason headers are the frame's
// payload in header form.
func (s *Snippet) duplexRefused(resp *httpwire.Response) error {
	return s.duplexEnded("channel upgrade", closeSignal{
		reason:   ParseCloseReason(resp.Header.Get(CloseReasonHeader)),
		retry:    ParseRetryAfter(resp.Header.Get(RetryAfterHeader)),
		relocate: resp.Header.Get(RelocateHeader),
	}, resp.StatusCode)
}

// duplexReadLoop consumes frames until the channel ends. Content and delta
// frames apply exactly as their poll-response counterparts and are
// acknowledged with the resulting docTime — or with 0 when an apply fails,
// which asks the agent for a full resync over the same channel. A read
// error opens the fallback window; a close frame is classified like a
// terminal poll response.
func (s *Snippet) duplexReadLoop(ch *httpwire.ChannelConn, stop <-chan struct{}) error {
	for {
		_ = ch.SetReadDeadline(time.Now().Add(duplexReadTimeout))
		f, err := ch.ReadFrame()
		if err != nil {
			select {
			case <-stop:
				return nil // our own shutdown closed the socket
			default:
			}
			s.suspendDuplex()
			return fmt.Errorf("rcb-snippet: channel read: %w", err)
		}
		s.mu.Lock()
		s.stats.DuplexFramesIn++
		s.mu.Unlock()
		switch f.Type {
		case FrameContent:
			s.duplexContent(ch, f.Payload)
		case FrameDelta:
			s.duplexDelta(ch, f.Payload)
		case FrameActionAck:
			seq, _ := strconv.ParseInt(string(f.Payload), 10, 64)
			s.mu.Lock()
			s.out.Ack(seq)
			s.mu.Unlock()
		case FramePong:
			// Keepalive answered; the read deadline was already pushed out.
		case FrameClose:
			cs := decodeCloseSignal(f.Payload)
			return s.duplexEnded("channel closed", cs, cs.reason.StatusCode())
		default:
			// Unknown frame type: ignore, for forward compatibility.
		}
	}
}

// duplexEnded routes the reason a channel was refused or closed, mirroring
// PollOnce's terminal-response handling: MOVED follows the relocation, an
// unknown/stale identity rejoins, deliberate removal ends the session, and
// a load refusal (OVERCOMMITTED, SESSION_FULL, AGENT_CLOSING) or a
// reason-less denial quietly opens the fallback window — not a session
// event, just this channel being declined — and returns nil.
func (s *Snippet) duplexEnded(op string, cs closeSignal, status int) error {
	s.mu.Lock()
	if cs.reason != CloseNone {
		s.stats.LastCloseReason = cs.reason
	}
	if cs.retry > 0 {
		s.retryAfter = cs.retry
	}
	switch cs.reason {
	case CloseMoved:
		if cs.relocate != "" {
			s.relocateTo = normalizeAgentURL(cs.relocate)
		}
		s.rejoinNeeded = true
	case CloseUnknown, CloseStaleReader:
		s.rejoinNeeded = true
	case CloseLeave, CloseKicked:
	default:
		s.mu.Unlock()
		s.suspendDuplex()
		return nil
	}
	s.mu.Unlock()
	return fmt.Errorf("rcb-snippet: %s: %w", op, &CloseError{Reason: cs.reason, Status: status})
}

// duplexContent applies one full-content frame: the poll path's
// newContent handling, minus the request.
func (s *Snippet) duplexContent(ch *httpwire.ChannelConn, payload []byte) {
	content, err := Unmarshal(payload)
	if err != nil {
		s.desync()
		s.duplexAck(ch, 0)
		return
	}
	for _, act := range content.UserActions {
		if s.OnUserAction != nil {
			s.OnUserAction(act)
		}
	}
	if !content.HasDocument {
		return // mirror actions only; nothing to acknowledge
	}
	if err := s.ApplyContent(content); err != nil {
		s.desync()
		s.duplexAck(ch, 0)
		return
	}
	s.mu.Lock()
	s.docTime = content.DocTime
	s.stats.ContentPolls++
	s.mu.Unlock()
	s.duplexAck(ch, content.DocTime)
}

// duplexDelta applies one delta frame through the shared delta path; any
// failure has already reset the sync state, and the 0-ack asks the agent
// to push the full snapshot.
func (s *Snippet) duplexDelta(ch *httpwire.ChannelConn, payload []byte) {
	ts := s.DocTime()
	if _, err := s.handleDeltaResponse(payload, ts); err != nil {
		s.duplexAck(ch, 0)
		return
	}
	s.duplexAck(ch, s.DocTime())
}

// duplexAck reports an applied docTime (or, with 0, a failed apply that
// needs a full resync) back to the agent.
func (s *Snippet) duplexAck(ch *httpwire.ChannelConn, ts int64) {
	buf := strconv.AppendInt(make([]byte, 0, 20), ts, 10)
	if ch.WriteFrame(httpwire.Frame{Type: FrameAck, Payload: buf}) == nil {
		s.mu.Lock()
		s.stats.DuplexFramesOut++
		s.mu.Unlock()
	}
}
