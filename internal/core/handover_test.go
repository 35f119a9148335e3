package core

// Live handover tests: the HandoverInit → StateSync → Complete handshake
// between two agents, the MOVED + Rcb-Relocate close protocol on the old
// address, and the snippet's relocation behavior — follow the new address
// exactly once, honor Rcb-Retry-After as a delay floor, fall back to the
// old address when the new one refuses joins.

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

const handoverKey = "handover-key"

// receiver is a second agent process on the virtual network, ready to
// accept a handover.
type receiver struct {
	host   *browser.Browser
	agent  *Agent
	server *httpwire.Server
	addr   string
}

func newReceiver(t *testing.T, w *world, host, key string, configure func(*Agent)) *receiver {
	t.Helper()
	addr := host + ":3000"
	hb := browser.New(host, w.corpus.Network.Dialer(host))
	t.Cleanup(hb.Close)
	agent := NewAgent(hb, addr)
	agent.AllowHandover = true
	if key != "" {
		agent.Auth = NewAuthenticator(key)
	}
	if configure != nil {
		configure(agent)
	}
	l, err := w.corpus.Network.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	t.Cleanup(server.Close)
	t.Cleanup(agent.Close)
	return &receiver{host: hb, agent: agent, server: server, addr: addr}
}

func handoverClient(w *world) *httpwire.Client {
	return httpwire.NewClient(w.corpus.Network.Dialer("host.lan"))
}

func joinWithKey(t *testing.T, w *world, loc, key string) *Snippet {
	t.Helper()
	pb := browser.New(loc, w.corpus.Network.Dialer(loc))
	t.Cleanup(pb.Close)
	pb.Client.ReadTimeout = 5 * time.Second
	s := NewSnippet(pb, "http://"+agentAddr, key)
	s.FetchObjects = false
	if err := s.Join(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLiveHandoverEndToEnd drives the full handshake over the simulated
// network with HMAC authentication on both ends: the session moves, the old
// agent answers MOVED + Rcb-Relocate, the snippet follows exactly once, the
// replay stamps travel (a duplicate re-sent across the transfer is applied
// exactly once), and the relocated replica converges byte-identically.
func TestLiveHandoverEndToEnd(t *testing.T) {
	var decisions atomic.Int64
	policy := PolicyFunc(func(string, Action) Decision {
		decisions.Add(1)
		return Apply
	})
	w := newWorld(t, func(a *Agent) {
		a.Auth = NewAuthenticator(handoverKey)
		a.Policy = policy
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := joinWithKey(t, w, "alice.lan", handoverKey)
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// An action whose ack is "lost": posted to the old agent, then replayed
	// on the piggyback path after the session has moved. The imported
	// (CID, CSeq) stamps must collapse the duplicate on the new agent.
	act := Action{Kind: ActionMouseMove, X: 9, Y: 9}
	alice.mu.Lock()
	alice.outboxLocked().stamp(&act)
	alice.mu.Unlock()
	if err := postActions(alice, act); err != nil {
		t.Fatal(err)
	}
	if got := decisions.Load(); got != 1 {
		t.Fatalf("pre-handover post reached the policy %d times, want 1", got)
	}

	rcv := newReceiver(t, w, "host2.lan", handoverKey, func(a *Agent) { a.Policy = policy })
	if err := w.agent.HandoverTo(handoverClient(w), rcv.addr); err != nil {
		t.Fatal(err)
	}
	if got := w.agent.RelocatedTo(); got != rcv.addr {
		t.Fatalf("old agent RelocatedTo = %q, want %q", got, rcv.addr)
	}
	if got := w.agent.ShedLevel(); got != ShedNone {
		t.Fatalf("old agent shed level stuck at %v after handover", got)
	}

	// The next poll on the old address is a retryable MOVED carrying the
	// new location.
	_, err := alice.PollOnce()
	if got := CloseReasonOf(err); got != CloseMoved {
		t.Fatalf("poll on old address: reason %v (%v), want MOVED", got, err)
	}
	if !CloseMoved.Retryable() {
		t.Fatal("MOVED must be retryable")
	}
	if !alice.RejoinNeeded() {
		t.Fatal("MOVED did not schedule a rejoin")
	}

	// Replay the unacked action, then rejoin: the queue travels with the
	// rejoin and must be filtered by the imported stamps.
	alice.QueueAction(act)
	if err := alice.Rejoin(); err != nil {
		t.Fatalf("relocated rejoin: %v", err)
	}
	if got := alice.Stats().Relocates; got != 1 {
		t.Fatalf("Relocates = %d, want exactly 1", got)
	}
	if got, want := alice.CurrentAgentURL(), "http://"+rcv.addr; got != want {
		t.Fatalf("CurrentAgentURL = %q, want %q", got, want)
	}
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := decisions.Load(); got != 1 {
		t.Fatalf("action applied %d times across the transfer, want exactly 1", got)
	}

	// The session is live on the receiver: its host document mutates and
	// the relocated participant converges byte-identically with a fresh
	// reference join at the new address.
	err = rcv.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-handover", "landed")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("post-handover mutation poll: updated=%v err=%v", updated, err)
	}
	refb := browser.New("handref.lan", w.corpus.Network.Dialer("handref.lan"))
	t.Cleanup(refb.Close)
	ref := NewSnippet(refb, "http://"+rcv.addr, handoverKey)
	ref.FetchObjects = false
	if err := ref.Join(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := docHTML(t, alice.Browser), docHTML(t, refb); got != want {
		t.Fatalf("relocated replica diverged:\n got: %s\nwant: %s", got, want)
	}
}

// TestHandoverRefusedWithoutOptIn: a receiver that did not opt in answers
// 403 at init; the sender never raises the fence and keeps serving.
func TestHandoverRefusedWithoutOptIn(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	rcv := newReceiver(t, w, "host2.lan", "", func(a *Agent) { a.AllowHandover = false })

	err := w.agent.HandoverTo(handoverClient(w), rcv.addr)
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("handover to non-opted-in receiver: %v, want 403 refusal", err)
	}
	if got := w.agent.RelocatedTo(); got != "" {
		t.Fatalf("sender relocated to %q after a refused handover", got)
	}
	if _, err := alice.PollOnce(); err != nil {
		t.Fatalf("sender stopped serving after a refused handover: %v", err)
	}
}

// TestJoinsRefusedDuringHandover pins the no-split-brain window: between
// init and complete the receiver refuses joins, so no fresh participant can
// race the incoming state; after complete, joins are admitted.
func TestJoinsRefusedDuringHandover(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	rcv := newReceiver(t, w, "host2.lan", "", nil)

	resp := rcv.agent.handoverInit()
	if resp.StatusCode != 200 {
		t.Fatalf("init: %d %s", resp.StatusCode, resp.Body)
	}
	token := string(resp.Body)

	pb := browser.New("eager.lan", w.corpus.Network.Dialer("eager.lan"))
	t.Cleanup(pb.Close)
	eager := NewSnippet(pb, "http://"+rcv.addr, "")
	err := eager.Join()
	if got := CloseReasonOf(err); err == nil || got == CloseNone {
		t.Fatalf("join during handover: err=%v reason=%v, want an explicit retryable refusal", err, got)
	} else if !got.Retryable() {
		t.Fatalf("join refusal during handover must be retryable, got %v", got)
	}

	state, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if resp := rcv.agent.handoverState(token, string(state)); resp.StatusCode != 200 {
		t.Fatalf("state: %d %s", resp.StatusCode, resp.Body)
	}
	// A retried state sync (lost response) is acknowledged, not re-imported.
	if resp := rcv.agent.handoverState(token, string(state)); resp.StatusCode != 200 {
		t.Fatalf("replayed state: %d %s", resp.StatusCode, resp.Body)
	}
	if resp := rcv.agent.handoverComplete(token); resp.StatusCode != 200 {
		t.Fatalf("complete: %d %s", resp.StatusCode, resp.Body)
	}
	if resp := rcv.agent.handoverComplete(token); resp.StatusCode != 200 {
		t.Fatalf("replayed complete: %d %s", resp.StatusCode, resp.Body)
	}
	if err := eager.Join(); err != nil {
		t.Fatalf("join after handover complete: %v", err)
	}
}

// TestMovedRetryAfterFloorsDelay: the Rcb-Retry-After on a MOVED response
// is adopted as the snippet's pacing floor before it follows the move.
func TestMovedRetryAfterFloorsDelay(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	rcv := newReceiver(t, w, "host2.lan", "", nil)
	if err := w.agent.HandoverTo(handoverClient(w), rcv.addr); err != nil {
		t.Fatal(err)
	}
	_, err := alice.PollOnce()
	if got := CloseReasonOf(err); got != CloseMoved {
		t.Fatalf("reason %v (%v), want MOVED", got, err)
	}
	if got := alice.retryAfter; got < DefaultMovedRetryAfter {
		t.Fatalf("retryAfter after MOVED = %v, want ≥ %v (the advertised floor)", got, DefaultMovedRetryAfter)
	}
}

// TestRelocateFallbackToOldAddress: when the relocation target refuses the
// join, the snippet reverts to the old address instead of stranding itself
// on a dead one.
func TestRelocateFallbackToOldAddress(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// The "new" agent is mid-handshake: it refuses joins.
	rcv := newReceiver(t, w, "host2.lan", "", nil)
	if resp := rcv.agent.handoverInit(); resp.StatusCode != 200 {
		t.Fatalf("init: %d", resp.StatusCode)
	}

	alice.mu.Lock()
	alice.relocateTo = "http://" + rcv.addr
	alice.mu.Unlock()
	if err := alice.Rejoin(); err == nil {
		t.Fatal("rejoin against a join-refusing target succeeded")
	}
	if got, want := alice.CurrentAgentURL(), "http://"+agentAddr; got != want {
		t.Fatalf("after failed relocation CurrentAgentURL = %q, want the old address %q", got, want)
	}
	if got := alice.Stats().Relocates; got != 0 {
		t.Fatalf("failed relocation counted as a relocate (%d)", got)
	}
	// The old address still serves: the fallback rejoin succeeds there.
	if err := alice.Rejoin(); err != nil {
		t.Fatalf("fallback rejoin to the old address: %v", err)
	}
}

// TestChainedHandover: A → B → C. A snippet lagging behind the first move
// follows MOVED twice and lands on the final agent — each agent in the
// chain keeps answering MOVED with its own forwarding address.
func TestChainedHandover(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	rb := newReceiver(t, w, "host2.lan", "", nil)
	rc := newReceiver(t, w, "host3.lan", "", nil)
	if err := w.agent.HandoverTo(handoverClient(w), rb.addr); err != nil {
		t.Fatalf("handover A→B: %v", err)
	}
	clientB := httpwire.NewClient(w.corpus.Network.Dialer("host2.lan"))
	if err := rb.agent.HandoverTo(clientB, rc.addr); err != nil {
		t.Fatalf("handover B→C: %v", err)
	}

	// Alice still points at A. Her next poll surfaces the first MOVED; the
	// rejoin against B surfaces the second (B forwards to C with its own
	// MOVED + Rcb-Relocate), and following it — as Run's backoff loop
	// would — converges on C.
	_, err := alice.PollOnce()
	if got := CloseReasonOf(err); got != CloseMoved {
		t.Fatalf("poll on A: reason %v (%v), want MOVED", got, err)
	}
	joined := false
	for attempt := 0; attempt < 6 && !joined; attempt++ {
		err := alice.Rejoin()
		switch {
		case err == nil:
			joined = true
		case CloseReasonOf(err) == CloseMoved:
			// forwarded again: the new address is captured, follow it
		default:
			t.Fatalf("rejoin attempt %d: %v", attempt, err)
		}
	}
	if !joined {
		t.Fatal("never converged on the final agent")
	}
	if got, want := alice.CurrentAgentURL(), "http://"+rc.addr; got != want {
		t.Fatalf("after chained handover CurrentAgentURL = %q, want %q", got, want)
	}
	if got := alice.Stats().Relocates; got < 1 {
		t.Fatalf("Relocates = %d, want ≥ 1", got)
	}
	if _, err := alice.PollOnce(); err != nil {
		t.Fatalf("poll on the final agent: %v", err)
	}
}

// TestHandoverLeavesNoGhosts: every relocated snippet rejoins the receiver
// under a fresh id, so the receiver must not keep the imported roster. With
// it kept, two handed-over participants would hold four seats — the second
// rejoin refused SESSION_FULL under a cap of three — and one broadcast would
// queue a mirror action for each ghost.
func TestHandoverLeavesNoGhosts(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice, bob := w.join(t, "alice.lan"), w.join(t, "bob.lan")
	for _, s := range []*Snippet{alice, bob} {
		if _, err := s.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	rcv := newReceiver(t, w, "host2.lan", "", func(a *Agent) { a.MaxParticipants = 3 })
	if err := w.agent.HandoverTo(handoverClient(w), rcv.addr); err != nil {
		t.Fatal(err)
	}
	if got := rcv.agent.ParticipantCount(); got != 0 {
		t.Fatalf("receiver holds %d participants before any rejoin, want 0", got)
	}
	for _, s := range []*Snippet{alice, bob} {
		if _, err := s.PollOnce(); CloseReasonOf(err) != CloseMoved {
			t.Fatalf("poll on the old address: %v, want MOVED", err)
		}
		if err := s.Rejoin(); err != nil {
			t.Fatalf("relocated rejoin: %v", err)
		}
	}
	if got := rcv.agent.ParticipantCount(); got != 2 {
		t.Fatalf("receiver holds %d participants after 2 rejoins, want 2", got)
	}
	rcv.agent.HostAction(Action{Kind: ActionMouseMove, X: 1, Y: 1})
	if got := rcv.agent.OutboxDepth(); got != 2 {
		t.Fatalf("one host broadcast queued %d mirror actions, want 2", got)
	}
}

// TestParkedPollAnsweredMovedAtFence: a long-poll parked when the handover
// fence lands is answered MOVED at once, not left to its hang.
func TestParkedPollAnsweredMovedAtFence(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "alice.lan", 5*time.Second)

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := s.PollOnce()
		done <- err
	}()
	waitParked(t, w.agent, 1)

	rcv := newReceiver(t, w, "host2.lan", "", nil)
	if err := w.agent.HandoverTo(handoverClient(w), rcv.addr); err != nil {
		t.Fatal(err)
	}
	if err := <-done; CloseReasonOf(err) != CloseMoved {
		t.Fatalf("parked poll answered %v, want MOVED", err)
	}
	if took := time.Since(start); took >= 5*time.Second {
		t.Fatalf("parked poll waited out its hang (%v)", took)
	}
	if !s.RejoinNeeded() {
		t.Fatal("MOVED on the parked poll did not schedule a rejoin")
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("%d polls still parked at the relocated agent", got)
	}
}
