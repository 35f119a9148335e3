package core

// Client half of the persistent full-duplex channel (DeliveryDuplex). The
// server half and the frame schema live in channel.go. One DuplexOnce call
// is one channel session: upgrade, read frames until the channel ends,
// tear down. Run drives sessions back to back, degrading to the long-poll
// path between attempts — the client's delivery ladder is
// duplex → long-poll → interval, each rung falling back to the next and
// recovering upward when the better channel becomes available again.

import (
	"fmt"
	"strconv"
	"time"

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
// the client is in duplex mode and not inside a post-failure suspension
// window (during which the long-poll fallback carries the session).
func (c *Client) duplexEligible() bool {
	if c.Delivery != DeliveryDuplex {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.duplexUntil.After(time.Now())
}

// suspendDuplex opens (or extends) the fallback window after a refused
// upgrade or a lost channel: upgrade attempts pause for the backoff delay —
// floored by any server-assigned retry interval — while polling carries the
// session.
func (c *Client) suspendDuplex() {
	c.mu.Lock()
	c.backoffsLocked()
	d := c.duplexBackoff.Next()
	if c.retryAfter > d {
		d = c.retryAfter
	}
	c.duplexUntil = time.Now().Add(d)
	c.stats.DuplexFallbacks++
	c.mu.Unlock()
}

// duplexDelay is the pause Run takes after a channel session ends: zero
// unless the agent assigned explicit pacing (a shed retry hint, a MOVED
// retry hint) — the fallback poll or the rejoin should otherwise start
// immediately.
func (c *Client) duplexDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfter
}

// writeActions sends one ACTIONS frame; the caller holds sendMu. A failed
// write closes the channel: the read loop then ends and teardown rewinds
// the outbox, so the actions ride the fallback poll or the next channel —
// at-least-once on the wire, exactly-once in effect through the agent's
// (CID, CSeq) filter.
func (c *Client) writeActions(ch *httpwire.ChannelConn, batch []Action) {
	if len(batch) == 0 {
		return
	}
	if ch.WriteFrame(httpwire.Frame{Type: FrameActions, Payload: []byte(EncodeActions(batch))}) != nil {
		ch.Close()
		return
	}
	c.mu.Lock()
	c.stats.DuplexActionsSent += int64(len(batch))
	c.stats.DuplexFramesOut++
	c.mu.Unlock()
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
func (c *Client) DuplexOnce(stop <-chan struct{}) error {
	// Answers still owed to action polls of the long-poll fallback come
	// first: the channel resends every unconfirmed action anyway, but their
	// mirrored actions must not wait for the next fallback.
	if _, err := c.readPolls(); err != nil {
		return err
	}
	addr, err := c.agentAddr()
	if err != nil {
		return err
	}
	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(c.DocTime(), 10)}}
	if !c.DisableDelta {
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	ch, resp, err := c.http.Upgrade(addr, c.request("/channel", fields), duplexUpgradeTimeout)
	if err != nil {
		c.suspendDuplex()
		return fmt.Errorf("rcb-snippet: channel upgrade: %w", err)
	}
	if ch == nil {
		return c.channelEnded("channel upgrade", headerCloseSignal(resp.Header), resp.StatusCode)
	}

	// Channel up: publish it as QueueAction's target and send every
	// unconfirmed action in one frame. Each send takes the whole unsent
	// tail under sendMu, so the backlog leaves ahead of any newer CSeq.
	c.mu.Lock()
	c.channel = ch
	c.out.Rewind()
	c.stats.DuplexUpgrades++
	c.backoffsLocked()
	c.duplexBackoff.Reset()
	c.parkDenied = false
	c.retryAfter = 0
	c.mu.Unlock()
	c.sendActions()

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
				c.mu.Lock()
				c.stats.DuplexFramesOut++
				c.mu.Unlock()
			}
		}
	}()
	err = c.duplexReadLoop(ch, stop)
	close(readerDone)
	ch.Close()

	// Teardown: detach and rewind, so every unconfirmed action rides the
	// next transport in CSeq order; the replay filter drops whatever the
	// agent already merged.
	c.mu.Lock()
	if c.channel == ch {
		c.channel = nil
	}
	c.out.Rewind()
	c.mu.Unlock()
	return err
}

// duplexReadLoop consumes frames until the channel ends. Content and delta
// frames apply exactly as their poll-response counterparts and are
// acknowledged with the resulting docTime — or with 0 when an apply fails,
// which asks the agent for a full resync over the same channel. A read
// error opens the fallback window; a close frame is routed like a refused
// poll's headers.
func (c *Client) duplexReadLoop(ch *httpwire.ChannelConn, stop <-chan struct{}) error {
	for {
		_ = ch.SetReadDeadline(time.Now().Add(duplexReadTimeout))
		f, err := ch.ReadFrame()
		if err != nil {
			select {
			case <-stop:
				return nil // our own shutdown closed the socket
			default:
			}
			c.suspendDuplex()
			return fmt.Errorf("rcb-snippet: channel read: %w", err)
		}
		c.mu.Lock()
		c.stats.DuplexFramesIn++
		c.mu.Unlock()
		switch f.Type {
		case FrameContent, FrameDelta:
			// A message without a document only mirrors actions: nothing
			// to acknowledge.
			updated, err := c.content(f.Payload, c.DocTime())
			switch {
			case err != nil:
				c.duplexAck(ch, 0)
			case updated:
				c.duplexAck(ch, c.DocTime())
			}
		case FrameActionAck:
			seq, _ := strconv.ParseInt(string(f.Payload), 10, 64)
			c.mu.Lock()
			c.out.Ack(seq)
			c.mu.Unlock()
		case FramePong:
			// Keepalive answered; the read deadline was already pushed out.
		case FrameClose:
			cs := decodeCloseSignal(f.Payload)
			return c.channelEnded("channel closed", cs, cs.reason.StatusCode())
		default:
			// Unknown frame type: ignore, for forward compatibility.
		}
	}
}

// channelEnded routes why a channel was refused or closed through the one
// close path. MOVED follows the relocation and an unknown or stale identity
// rejoins; deliberate removal ends the session; anything else — a load
// refusal (OVERCOMMITTED, SESSION_FULL, AGENT_CLOSING) or a reason-less
// denial — only declines this channel: the fallback window opens and nil
// comes back, since the session itself is fine.
func (c *Client) channelEnded(op string, cs closeSignal, status int) error {
	switch cs.reason {
	case CloseMoved, CloseUnknown, CloseStaleReader, CloseLeave, CloseKicked:
		return c.closed(op, cs, status, cs.reason.Retryable())
	}
	_ = c.closed(op, cs, status, false)
	c.suspendDuplex()
	return nil
}

// duplexAck reports an applied docTime (or, with 0, a failed apply that
// needs a full resync) back to the agent.
func (c *Client) duplexAck(ch *httpwire.ChannelConn, ts int64) {
	buf := strconv.AppendInt(make([]byte, 0, 20), ts, 10)
	if ch.WriteFrame(httpwire.Frame{Type: FrameAck, Payload: buf}) == nil {
		c.mu.Lock()
		c.stats.DuplexFramesOut++
		c.mu.Unlock()
	}
}
