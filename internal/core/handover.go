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
//  2. relocation fence         — under the serve/state barrier's write
//     lock the sender marks itself relocated; from that instant every
//     request answers MOVED + Rcb-Relocate and no session state can
//     change, which is what makes the exported snapshot the final word
//     (replay stamps included: exactly-once survives the move). A hub
//     wake then answers every parked poll and live channel MOVED too.
//  3. POST /handover/state     — the snapshot transfers; the receiver
//     imports it and adopts the session key.
//  4. POST /handover/complete  — the receiver opens its doors; snippets
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

// movedSignal is the close a relocated agent answers every request and
// channel with. Caller holds at least the read side of smu.
func (a *Agent) movedSignal() closeSignal {
	return closeSignal{reason: CloseMoved, retry: DefaultMovedRetryAfter, relocate: a.relocatedTo}
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
// verified authentication; smu is NOT held (the state step takes the write
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
	// The whole step holds the barrier's write side, so a retried /state
	// racing a slow first import waits for it and then finds it landed.
	a.smu.Lock()
	defer a.smu.Unlock()
	a.hmu.Lock()
	valid, imported := a.handoverToken != "" && token == a.handoverToken, a.handoverImported
	a.hmu.Unlock()
	if !valid {
		return httpwire.NewResponse(403, "text/plain", []byte("bad handover token\n"))
	}
	if imported {
		// Retry of a transfer that already landed: acknowledge, don't
		// re-import.
		return httpwire.NewResponse(200, "text/plain", []byte("ok\n"))
	}
	st, err := decodeState([]byte(state))
	if err == nil {
		// Every relocated snippet rejoins here, and a join mints a fresh id,
		// so an imported roster would leave one ghost per participant holding
		// a seat and a mirror queue. The replay stamps, the id counter and
		// prepared builds still import.
		st.Participants = nil
		err = a.importLocked(st)
	}
	if err != nil {
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

	// Step 2: the relocation fence. From here no request mutates state;
	// in-flight merges have drained (setRelocated waits out the barrier's
	// readers), so the snapshot below is the session's final word. A poll
	// registers its park under the barrier's read side, so every park
	// precedes the fence and the wake below answers it MOVED; so does each
	// live channel's flush.
	a.setRelocated(addr)
	a.hub.notifyAll()
	state, err := a.ExportState()
	if err != nil {
		a.setRelocated("")
		return fmt.Errorf("rcb-agent: handover export: %w", err)
	}

	// Step 3: transfer. After the first successful /state the receiver
	// owns the session: no rollback past this point, whatever happens to
	// /complete — re-running it is idempotent.
	fields := []httpwire.FormField{{Name: "token", Value: token}, {Name: "state", Value: string(state)}}
	if _, err := a.handoverPost(client, addr, "/handover/state", fields); err != nil {
		a.setRelocated("")
		return fmt.Errorf("rcb-agent: handover state sync: %w", err)
	}

	// Step 4: complete — the receiver opens for joins.
	if _, err := a.handoverPost(client, addr, "/handover/complete",
		[]httpwire.FormField{{Name: "token", Value: token}}); err != nil {
		return fmt.Errorf("rcb-agent: handover complete (state already transferred): %w", err)
	}
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
