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

// dispatchDuplex routes one stamped action over the live channel, if one is
// attached. The action enters the retransmit buffer before the write: if
// the channel dies with the ack outstanding, teardown requeues it for
// piggybacking, and the agent's (CID, CSeq) filter absorbs the replay —
// at-least-once on the wire, exactly-once in effect, the same contract as
// every other upstream path.
func (s *Snippet) dispatchDuplex(act Action) bool {
	s.mu.Lock()
	ch := s.channel
	if ch == nil {
		s.mu.Unlock()
		return false
	}
	s.chanSent = append(s.chanSent, act)
	s.stats.DuplexActionsSent++
	s.mu.Unlock()
	payload := EncodeActions([]Action{act})
	if err := ch.WriteFrame(httpwire.Frame{Type: FrameActions, Payload: []byte(payload)}); err != nil {
		// The channel is dying under us. Move the action from the
		// retransmit buffer to the piggyback queue — unless the teardown
		// already swept it there.
		s.mu.Lock()
		for i := range s.chanSent {
			if s.chanSent[i].CID == act.CID && s.chanSent[i].CSeq == act.CSeq {
				s.chanSent = append(s.chanSent[:i], s.chanSent[i+1:]...)
				s.queue = append(s.queue, act)
				s.stats.ActionFallbacks++
				break
			}
		}
		s.mu.Unlock()
		return true
	}
	s.mu.Lock()
	s.stats.DuplexFramesOut++
	s.mu.Unlock()
	return true
}

// DuplexOnce runs one persistent-channel session: upgrade the connection,
// then read frames — content pushes, action acks, pongs, the close — until
// the channel ends. It blocks for the session's lifetime (Run calls it in
// place of a PollOnce cycle) and returns nil for orderly degradations, a
// CloseError when the agent ended the session with a reason, or the
// transport error that killed the channel. Queued actions are flushed over
// the channel the moment it opens; unacknowledged ones are requeued when it
// closes.
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

	// Channel up: attach it as the dispatch target and flush the piggyback
	// queue over it, so actions queued during the fallback window arrive
	// now instead of riding a poll that will never be sent.
	s.mu.Lock()
	s.channel = ch
	queued := s.queue
	s.queue = nil
	s.stats.DuplexUpgrades++
	s.backoffsLocked()
	s.duplexBackoff.Reset()
	s.pushSuspended = false
	s.parkDenied = false
	s.retryAfter = 0
	s.mu.Unlock()
	if len(queued) > 0 {
		if werr := ch.WriteFrame(httpwire.Frame{Type: FrameActions,
			Payload: []byte(EncodeActions(queued))}); werr == nil {
			s.mu.Lock()
			s.chanSent = append(s.chanSent, queued...)
			s.stats.DuplexActionsSent += int64(len(queued))
			s.stats.DuplexFramesOut++
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			s.queue = append(queued, s.queue...)
			s.mu.Unlock()
		}
	}

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

	// Teardown: detach, and sweep unacknowledged actions into the piggyback
	// queue ahead of anything queued since — CSeq order is preserved, and
	// the replay filter drops whatever the agent already merged.
	s.mu.Lock()
	if s.channel == ch {
		s.channel = nil
	}
	unacked := s.chanSent
	s.chanSent = nil
	if len(unacked) > 0 {
		s.queue = append(unacked, s.queue...)
	}
	s.mu.Unlock()
	return err
}

// duplexRefused classifies a non-101 answer to the upgrade handshake,
// mirroring PollOnce's terminal-response handling: MOVED follows the
// relocation, an unknown/stale identity rejoins, deliberate removal ends
// the session, and load refusals quietly open the fallback window.
func (s *Snippet) duplexRefused(resp *httpwire.Response) error {
	reason := ParseCloseReason(resp.Header.Get(CloseReasonHeader))
	s.mu.Lock()
	if ra := ParseRetryAfter(resp.Header.Get(RetryAfterHeader)); ra > 0 {
		s.retryAfter = ra
	}
	if reason != CloseNone {
		s.stats.LastCloseReason = reason
	}
	switch reason {
	case CloseMoved:
		if addr := resp.Header.Get(RelocateHeader); addr != "" {
			s.relocateTo = normalizeAgentURL(addr)
		}
		s.rejoinNeeded = true
		s.mu.Unlock()
	case CloseUnknown, CloseStaleReader:
		s.rejoinNeeded = true
		s.mu.Unlock()
	case CloseLeave, CloseKicked:
		s.mu.Unlock()
	default:
		// Load refusal (OVERCOMMITTED, SESSION_FULL, AGENT_CLOSING) or a
		// reason-less denial: not a session event, just this channel being
		// declined. Fall back to polling and retry the upgrade later.
		s.mu.Unlock()
		s.suspendDuplex()
		return nil
	}
	return fmt.Errorf("rcb-snippet: channel upgrade: %w",
		&CloseError{Reason: reason, Status: resp.StatusCode})
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
			kept := s.chanSent[:0]
			for _, a := range s.chanSent {
				if a.CSeq > seq {
					kept = append(kept, a)
				}
			}
			s.chanSent = kept
			s.mu.Unlock()
		case FramePong:
			// Keepalive answered; the read deadline was already pushed out.
		case FrameClose:
			return s.duplexClosed(decodeCloseSignal(f.Payload))
		default:
			// Unknown frame type: ignore, for forward compatibility.
		}
	}
}

// duplexClosed classifies the agent's close frame — the frame analogue of a
// terminal poll response, with the same routing as duplexRefused.
func (s *Snippet) duplexClosed(cs closeSignal) error {
	s.mu.Lock()
	s.stats.LastCloseReason = cs.reason
	if cs.retry > 0 {
		s.retryAfter = cs.retry
	}
	switch cs.reason {
	case CloseMoved:
		if cs.relocate != "" {
			s.relocateTo = normalizeAgentURL(cs.relocate)
		}
		s.rejoinNeeded = true
		s.mu.Unlock()
	case CloseUnknown, CloseStaleReader:
		s.rejoinNeeded = true
		s.mu.Unlock()
	case CloseLeave, CloseKicked:
		s.mu.Unlock()
	default:
		// The agent shed this channel (or is shutting down): degrade to the
		// poll path, retry the upgrade when the window passes.
		s.mu.Unlock()
		s.suspendDuplex()
		return nil
	}
	return fmt.Errorf("rcb-snippet: channel closed: %w",
		&CloseError{Reason: cs.reason, Status: cs.reason.StatusCode()})
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
