package core

import (
	"fmt"
	"time"

	"rcb/internal/httpwire"
)

// Live agent handover: the HandoverInit → StateSync → Complete handshake
// that moves a running session from one agent process to another without
// restarting it. The sender (old agent) drives the exchange:
//
//  1. POST /handover/init      — the receiver, which must opt in with
//     AllowHandover, issues a one-time transfer token and stops admitting
//     joins so the incoming state cannot race fresh participants.
//  2. quiesce                  — the sender pins the shed ladder at
//     ShedInterval (no new long-polls park) and drains the parked ones,
//     so no request is suspended mid-protocol when the state leaves.
//  3. relocation fence         — under the serve/state barrier's write
//     lock the sender marks itself relocated; from that instant every
//     request answers MOVED + Rcb-Relocate and no session state can
//     change, which is what makes the exported snapshot the final word
//     (replay stamps included: exactly-once survives the move).
//  4. POST /handover/state     — the snapshot transfers; the receiver
//     imports it and adopts the session key.
//  5. POST /handover/complete  — the receiver opens its doors; snippets
//     follow the relocation on their normal backoff/rejoin path.
//
// The receiver side is idempotent at every step — init re-issues the
// outstanding token, state and complete acknowledge replays — so a lost
// response is retried without splitting the session. The sender rolls the
// fence back only while the state has provably not landed (before any
// /state success); afterwards the receiver owns the session and the old
// process must keep answering MOVED.

// DefaultMovedRetryAfter is the retry hint attached to MOVED responses and
// MOVED close frames: short, because the new agent is already serving and
// the snippet should follow promptly.
const DefaultMovedRetryAfter = 50 * time.Millisecond

// handoverAttempts is how many times the sender retries each handshake
// step before giving up.
const handoverAttempts = 5

// handoverStepTimeout bounds one handshake round trip. State transfers are
// a single request carrying the whole session, so this is generous.
const handoverStepTimeout = 10 * time.Second

// quiesceTimeout bounds the parked-poll drain; parked polls complete
// within their hang anyway, so this only guards a stuck hub.
const quiesceTimeout = 5 * time.Second

// movedSignal is the close a relocated agent answers every request and
// channel with. Caller holds at least the read side of smu.
func (a *Agent) movedSignal() closeSignal {
	return closeSignal{reason: CloseMoved, retry: DefaultMovedRetryAfter, relocate: a.relocatedTo}
}

// RelocatedTo reports the address this agent's session moved to ("" while
// the agent is live).
func (a *Agent) RelocatedTo() string {
	a.smu.RLock()
	defer a.smu.RUnlock()
	return a.relocatedTo
}

// setRelocated plants (or clears) the relocation fence under the
// serve/state barrier: once it returns, no request path can mutate
// session state.
func (a *Agent) setRelocated(addr string) {
	a.smu.Lock()
	a.relocatedTo = addr
	a.smu.Unlock()
}

// handoverPending reports whether this agent has issued a transfer token
// that has not completed — the window during which joins are refused.
func (a *Agent) handoverPending() bool {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	return a.handoverToken != ""
}

// serveHandover is the receiver side of the handshake. Caller has already
// verified authentication; smu is NOT held (ImportState takes the write
// side itself).
func (a *Agent) serveHandover(req *httpwire.Request) *httpwire.Response {
	var token, state string
	for _, f := range httpwire.ParseForm(string(req.Body)) {
		switch f.Name {
		case "token":
			token = f.Value
		case "state":
			state = f.Value
		}
	}
	switch req.Path() {
	case "/handover/init":
		return a.handoverInit()
	case "/handover/state":
		return a.handoverState(token, state)
	case "/handover/complete":
		return a.handoverComplete(token)
	default:
		return httpwire.NewResponse(404, "text/plain", []byte("unknown handover step\n"))
	}
}

func (a *Agent) handoverInit() *httpwire.Response {
	if !a.AllowHandover {
		return httpwire.NewResponse(403, "text/plain", []byte("handover not allowed\n"))
	}
	a.hmu.Lock()
	defer a.hmu.Unlock()
	if a.handoverToken == "" {
		a.handoverToken = NewSessionKey()
		a.handoverImported = false
		a.handoverDone = false
		a.logf("rcb-agent: handover init, token issued")
	}
	// A repeated init (sender retrying a lost response) re-issues the
	// outstanding token instead of minting a second transfer.
	return httpwire.NewResponse(200, "text/plain", []byte(a.handoverToken))
}

func (a *Agent) handoverState(token, state string) *httpwire.Response {
	a.hmu.Lock()
	if a.handoverToken == "" || token != a.handoverToken {
		a.hmu.Unlock()
		return httpwire.NewResponse(403, "text/plain", []byte("bad handover token\n"))
	}
	if a.handoverImported {
		// Retry of a transfer that already landed: acknowledge, don't
		// re-import (the session may already be live with participants).
		a.hmu.Unlock()
		return httpwire.NewResponse(200, "text/plain", []byte("ok\n"))
	}
	a.hmu.Unlock()

	if err := a.ImportState([]byte(state)); err != nil {
		// A retried /state racing a slow first import can lose to it and
		// then find the session live; that is a success, not a conflict.
		a.hmu.Lock()
		imported := a.handoverImported
		a.hmu.Unlock()
		if imported {
			return httpwire.NewResponse(200, "text/plain", []byte("ok\n"))
		}
		a.logf("rcb-agent: handover import failed: %v", err)
		return httpwire.NewResponse(409, "text/plain", []byte("import failed: "+err.Error()+"\n"))
	}
	a.hmu.Lock()
	a.handoverImported = true
	a.hmu.Unlock()
	a.logf("rcb-agent: handover state imported")
	return httpwire.NewResponse(200, "text/plain", []byte("ok\n"))
}

func (a *Agent) handoverComplete(token string) *httpwire.Response {
	a.hmu.Lock()
	defer a.hmu.Unlock()
	if a.handoverDone {
		return httpwire.NewResponse(200, "text/plain", []byte("ok\n"))
	}
	if a.handoverToken == "" || token != a.handoverToken || !a.handoverImported {
		return httpwire.NewResponse(403, "text/plain", []byte("bad handover token\n"))
	}
	a.handoverDone = true
	a.handoverToken = "" // doors open: joins admitted again
	a.logf("rcb-agent: handover complete, session live")
	return httpwire.NewResponse(200, "text/plain", []byte("ok\n"))
}

// HandoverTo migrates this agent's session to the agent listening at addr,
// reachable through client. On success the old agent answers every request
// with MOVED + Rcb-Relocate forever after; on failure before the state
// landed remotely, the fence is rolled back and the session keeps serving
// here. Both processes must share the session key — the handshake rides
// the same HMAC scheme as participant traffic.
func (a *Agent) HandoverTo(client *httpwire.Client, addr string) error {
	// Step 1: init — obtain the transfer token.
	tokenResp, err := a.handoverPost(client, addr, "/handover/init", nil)
	if err != nil {
		return fmt.Errorf("rcb-agent: handover init: %w", err)
	}
	token := string(tokenResp)

	// Step 2: quiesce. Pin the ladder at ShedInterval so no new long-poll
	// parks, then wake and drain the parked ones. Polls answered during
	// this window carry the shed retry-after, degrading the fleet to
	// interval mode for the transfer.
	a.forceShed(ShedInterval)
	a.hub.notifyAll()
	drainDeadline := time.Now().Add(quiesceTimeout)
	for a.ParkedPolls() > 0 {
		if time.Now().After(drainDeadline) {
			a.forceShed(ShedNone)
			return fmt.Errorf("rcb-agent: handover: %d polls still parked after %v", a.ParkedPolls(), quiesceTimeout)
		}
		time.Sleep(time.Millisecond)
		a.hub.notifyAll()
	}

	// Step 3: the relocation fence. From here no request mutates state;
	// in-flight merges have drained (setRelocated waits out the barrier's
	// readers), so the snapshot below is the session's final word.
	a.setRelocated(addr)
	// Persistent channels survive the quiesce (their writers shed only on
	// the measured ladder, not the forced floor) precisely so this wake can
	// deliver the MOVED close frame over the live channel — the framed
	// analogue of the MOVED response every poll now receives.
	a.hub.notifyAll()
	state, err := a.ExportState()
	if err != nil {
		a.setRelocated("")
		a.forceShed(ShedNone)
		return fmt.Errorf("rcb-agent: handover export: %w", err)
	}

	// Step 4: transfer. After the first successful /state the receiver
	// owns the session: no rollback past this point, whatever happens to
	// /complete — re-running it is idempotent.
	fields := []httpwire.FormField{{Name: "token", Value: token}, {Name: "state", Value: string(state)}}
	if _, err := a.handoverPost(client, addr, "/handover/state", fields); err != nil {
		a.setRelocated("")
		a.forceShed(ShedNone)
		return fmt.Errorf("rcb-agent: handover state sync: %w", err)
	}

	// Step 5: complete — the receiver opens for joins.
	if _, err := a.handoverPost(client, addr, "/handover/complete",
		[]httpwire.FormField{{Name: "token", Value: token}}); err != nil {
		return fmt.Errorf("rcb-agent: handover complete (state already transferred): %w", err)
	}
	a.forceShed(ShedNone)
	a.logf("rcb-agent: session handed over to %s", addr)
	return nil
}

// handoverPost sends one handshake step, signing with the shared session
// key and retrying transport failures.
func (a *Agent) handoverPost(client *httpwire.Client, addr, path string, fields []httpwire.FormField) ([]byte, error) {
	body := []byte(httpwire.EncodeForm(fields))
	var lastErr error
	for attempt := 0; attempt < handoverAttempts; attempt++ {
		target := path
		if a.Auth != nil {
			target = a.Auth.Sign("POST", path, body)
		}
		req := httpwire.NewRequest("POST", target)
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Body = body
		resp, err := client.DoTimeout(addr, req, handoverStepTimeout)
		if err != nil {
			lastErr = err
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
			continue
		}
		if resp.StatusCode != 200 {
			// Protocol-level refusals (no AllowHandover, bad token, import
			// failure) are not retryable: the receiver answered, it said no.
			return nil, fmt.Errorf("%s: %d %s", path, resp.StatusCode, string(resp.Body))
		}
		return resp.Body, nil
	}
	return nil, fmt.Errorf("%s: %w", path, lastErr)
}
