package core

// Tests for the fire-and-forget action upstream: the /action endpoint, the
// snippet's push dispatch, and every degradation edge back to the paper's
// piggyback path. The headline test closes ROADMAP's "poll-free action
// upstream" gap under -race: an action fired while this participant's
// long-poll is parked reaches the host and the mirrored participants
// without waiting out the hang, and is never delivered twice.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// joinWithKey connects a participant whose snippet signs requests with key.
func (w *world) joinWithKey(t *testing.T, loc, key string) *Snippet {
	t.Helper()
	pb := browser.New(loc, w.corpus.Network.Dialer(loc))
	t.Cleanup(pb.Close)
	s := NewSnippet(pb, "http://"+agentAddr, key)
	if err := s.Join(); err != nil {
		t.Fatal(err)
	}
	return s
}

// mirrorCounter records mirrored pointer actions keyed by X coordinate.
type mirrorCounter struct {
	mu   sync.Mutex
	seen map[int]int
}

func newMirrorCounter(s *Snippet) *mirrorCounter {
	m := &mirrorCounter{seen: make(map[int]int)}
	s.OnUserAction = func(act Action) {
		if act.Kind == ActionMouseMove {
			m.mu.Lock()
			m.seen[act.X]++
			m.mu.Unlock()
		}
	}
	return m
}

func (m *mirrorCounter) count(x int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen[x]
}

// TestActionPushOvertakesParkedPoll is the motivating race (ROADMAP open
// item 1): the sender's long-poll is parked on the delivery hub, so the
// piggyback path cannot carry an action until the hang elapses. With
// ActionPush the action rides its own connection lane, reaches the host
// immediately, and wakes the mirror's parked poll — exactly one wake, and
// the subsequent polls must not deliver the action a second time. Run
// under -race (CI does).
func TestActionPushOvertakesParkedPoll(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	// Sender: short hang so the test can observe its park expiring without
	// the action; mirror: long hang so any delivery it sees is a real wake.
	sender := longPollJoin(t, w, "sender.lan", 700*time.Millisecond)
	sender.ActionPush = true
	mirror := longPollJoin(t, w, "mirror.lan", 10*time.Second)
	counts := newMirrorCounter(mirror)

	senderDone := make(chan error, 1)
	mirrorDone := make(chan error, 1)
	go func() { _, err := sender.PollOnce(); senderDone <- err }()
	go func() { _, err := mirror.PollOnce(); mirrorDone <- err }()
	waitParked(t, w.agent, 2)

	start := time.Now()
	sender.PointerMove(42, 7) // dispatch → push: the parked poll stays parked
	if err := <-mirrorDone; err != nil {
		t.Fatal(err)
	}
	wake := time.Since(start)
	if wake >= 700*time.Millisecond {
		t.Fatalf("mirror woke after %v — the action waited out the sender's hang instead of overtaking it", wake)
	}
	if got := counts.count(42); got != 1 {
		t.Fatalf("mirror saw the pushed action %d times, want exactly 1", got)
	}
	if got := w.agent.ActionPushes(); got != 1 {
		t.Fatalf("agent accepted %d action pushes, want 1", got)
	}
	st := sender.Stats()
	if st.ActionsPushed != 1 || st.ActionsSent != 0 || st.ActionFallbacks != 0 {
		t.Fatalf("sender stats = %+v: want 1 push, 0 piggybacked, 0 fallbacks", st)
	}

	// The sender's own parked poll expires empty (a pointer move is not
	// echoed to its originator) and the next polls on both sides carry no
	// duplicate.
	if err := <-senderDone; err != nil {
		t.Fatal(err)
	}
	if st := sender.Stats(); st.ActionsSent != 0 {
		t.Fatalf("sender piggybacked %d actions after the push; the queue must stay empty", st.ActionsSent)
	}
	mirror.LongPollWait = time.Millisecond
	if _, err := mirror.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := counts.count(42); got != 1 {
		t.Fatalf("mirror saw the action %d times after draining, want exactly 1 (no redelivery)", got)
	}
}

// TestActionPushDocMutationWakesFleet covers the other wake path: a pushed
// forminput mutates the host document, so every parked poll — including the
// sender's own — wakes with the new content within one hang-wake.
func TestActionPushDocMutationWakesFleet(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/") // google.com: has a search form

	sender := longPollJoin(t, w, "typist.lan", 10*time.Second)
	sender.ActionPush = true
	watcher := longPollJoin(t, w, "watcher.lan", 10*time.Second)

	// Find a rewritten form input in the synced participant document.
	var inputPath string
	err := sender.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		for _, el := range doc.Root.ElementsByTag("input") {
			if el.AttrOr("type", "") == "text" {
				inputPath = el.AttrOr(RCBAttr, "")
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inputPath == "" {
		t.Fatal("site has no rewritten text input to co-fill")
	}

	type result struct {
		updated bool
		err     error
	}
	senderDone := make(chan result, 1)
	watcherDone := make(chan result, 1)
	go func() { u, err := sender.PollOnce(); senderDone <- result{u, err} }()
	go func() { u, err := watcher.PollOnce(); watcherDone <- result{u, err} }()
	waitParked(t, w.agent, 2)

	start := time.Now()
	sender.dispatch(Action{Kind: ActionFormInput, Target: inputPath, Value: "pushed value"})
	for _, ch := range []chan result{senderDone, watcherDone} {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.updated {
			t.Fatal("parked poll woke without the mutated content")
		}
	}
	if took := time.Since(start); took >= 5*time.Second {
		t.Fatalf("fleet wake took %v; the push must wake parked polls immediately", took)
	}
	// Both participants converged on the pushed value.
	for _, s := range []*Snippet{sender, watcher} {
		var val string
		err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
			for _, el := range doc.Root.ElementsByTag("input") {
				if el.AttrOr(RCBAttr, "") == inputPath {
					val = el.AttrOr("value", "")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if val != "pushed value" {
			t.Fatalf("participant input value = %q, want %q", val, "pushed value")
		}
	}
	if got := w.agent.ActionPushes(); got != 1 {
		t.Fatalf("agent accepted %d pushes, want 1", got)
	}
}

// TestIntervalModeNeverPushes guards the degradation rule: an interval-mode
// snippet ignores ActionPush entirely — the endpoint is never attempted and
// the action rides the paper's piggyback path.
func TestIntervalModeNeverPushes(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.ActionPush = true // set, but interval mode must ignore it
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()
	counts := newMirrorCounter(bob2)

	alice.PointerMove(9, 9)
	if got := w.agent.ActionPushes(); got != 0 {
		t.Fatalf("interval-mode snippet hit the /action endpoint %d times", got)
	}
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := bob2.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := counts.count(9); got != 1 {
		t.Fatalf("piggybacked action mirrored %d times, want 1", got)
	}
	st := alice.Stats()
	if st.ActionsSent != 1 || st.ActionsPushed != 0 {
		t.Fatalf("stats = %+v: want the action piggybacked, not pushed", st)
	}
}

// TestActionPushServerDownFallsBack covers transport failure: with the
// server gone the push errors, the action stays in the outbox (no loss),
// which suspends pushing (no doomed round trip per action), and a
// successful poll after the server returns empties it and re-arms the push.
func TestActionPushServerDownFallsBack(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "offline.lan", 10*time.Second)
	s.ActionPush = true

	w.server.Close()
	s.PointerMove(1, 1)
	st := s.Stats()
	if st.ActionFallbacks != 1 || st.ActionsPushed != 0 {
		t.Fatalf("stats after failed push = %+v: want 1 fallback, 0 pushed", st)
	}
	s.mu.Lock()
	queued := s.out.Len()
	s.mu.Unlock()
	if queued != 1 {
		t.Fatalf("outbox=%d after failed push: the action must stay queued, suspending pushes", queued)
	}
	// A second action while suspended goes straight to the queue — no
	// second endpoint attempt.
	s.PointerMove(2, 2)
	if st := s.Stats(); st.ActionFallbacks != 1 {
		t.Fatalf("suspended dispatch attempted the endpoint again (fallbacks=%d)", st.ActionFallbacks)
	}

	// Server comes back on the same address; the next poll flushes the
	// queue (piggyback — no loss) and re-arms the push channel.
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	server2 := &httpwire.Server{Handler: w.agent}
	server2.Start(l)
	t.Cleanup(server2.Close)
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.ActionsSent != 2 {
		t.Fatalf("recovery poll piggybacked %d actions, want 2 (both fallbacks)", st.ActionsSent)
	}
	s.mu.Lock()
	queued = s.out.Len()
	s.mu.Unlock()
	if queued != 0 {
		t.Fatalf("successful poll left %d actions in the outbox; pushes stay suspended", queued)
	}
	s.PointerMove(3, 3)
	if got := w.agent.ActionPushes(); got != 1 {
		t.Fatalf("re-armed push not used (agent pushes = %d, want 1)", got)
	}
}

// TestActionPushRejectedFallsBack covers protocol failure: a 403 from the
// endpoint (the participant was disconnected — moderation's remove lever)
// degrades to the piggyback queue with the action preserved.
func TestActionPushRejectedFallsBack(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "evicted.lan", 10*time.Second)
	s.ActionPush = true

	w.agent.Disconnect("p1") // the only participant
	s.PointerMove(5, 5)
	st := s.Stats()
	if st.ActionFallbacks != 1 || st.ActionsPushed != 0 {
		t.Fatalf("stats after rejected push = %+v: want 1 fallback, 0 pushed", st)
	}
	s.mu.Lock()
	queued := s.out.Len()
	s.mu.Unlock()
	if queued != 1 {
		t.Fatalf("rejected action not preserved in the queue (len=%d)", queued)
	}
	if got := w.agent.ActionPushes(); got != 0 {
		t.Fatalf("agent counted %d accepted pushes for a disconnected participant", got)
	}
	// The participant's next poll reports the 403 too — the standard
	// disconnect signal, telling the client to rejoin.
	if _, err := s.PollOnce(); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("poll after disconnect returned %v, want a 403 error", err)
	}
}

// TestActionPushAuth checks that the /action endpoint enforces the same
// §3.4 HMAC discipline as every other route.
func TestActionPushAuth(t *testing.T) {
	key := NewSessionKey()
	w := newWorld(t, func(a *Agent) { a.Auth = NewAuthenticator(key) })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	alice := w.joinWithKey(t, "alice.lan", key)
	alice.Delivery = DeliveryLongPoll
	alice.ActionPush = true
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if err := alice.PushAction(Action{Kind: ActionMouseMove, X: 1, Y: 2}); err != nil {
		t.Fatalf("signed push rejected: %v", err)
	}

	mallory := w.joinWithKey(t, "mallory.lan", "wrong-key")
	mallory.Delivery = DeliveryLongPoll
	if err := mallory.PushAction(Action{Kind: ActionMouseMove, X: 3, Y: 4}); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("forged push returned %v, want 401", err)
	}
	if got := w.agent.ActionPushes(); got != 1 {
		t.Fatalf("agent accepted %d pushes, want only the signed one", got)
	}
}
