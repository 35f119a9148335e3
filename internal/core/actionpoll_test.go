package core

// Tests for the pipelined action upstream: in long-poll mode an action
// leaves at once as a poll of its own, written on the connection the parked
// poll holds; the agent ends that park with the plain empty answer when the
// action poll arrives, merges its actions and parks it in the old one's
// place, and the client reads both answers in order. The headline tests run
// under -race: an action fired while this participant's long-poll is parked
// reaches the host and the mirrored participants without waiting out the
// hang, over one socket, and is never delivered twice.

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// postActions sends acts on one poll that does not park, outside the
// snippet's outbox, and waits for the agent's acknowledgment — the batch a
// replay after a lost answer would resend.
func postActions(s *Snippet, acts ...Action) error {
	addr, err := s.agentAddr()
	if err != nil {
		return err
	}
	req := s.request("/poll", []httpwire.FormField{
		{Name: "ts", Value: strconv.FormatInt(s.DocTime(), 10)},
		{Name: "actions", Value: EncodeActions(acts)},
	})
	resp, err := s.http.DoTimeout(addr, req, 5*time.Second)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		return refusal("post actions", headerCloseSignal(resp.Header), resp.StatusCode)
	}
	return nil
}

// countingJoin connects a participant whose browser counts its dials.
func countingJoin(t *testing.T, w *world, loc string, dials *atomic.Int32) *Snippet {
	t.Helper()
	dial := w.corpus.Network.Dialer(loc)
	pb := browser.New(loc, func(addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(addr)
	})
	t.Cleanup(pb.Close)
	s := NewSnippet(pb, "http://"+agentAddr, "")
	if err := s.Join(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOneSocketCarriesEverything: a default long-poll snippet — no option
// set — parked on a 10 s hang gets an action to the host policy within
// 100 ms, the action poll takes over the park, and its join, object
// fetches, polls and the action all ride one connection.
func TestOneSocketCarriesEverything(t *testing.T) {
	reached := make(chan time.Time, 4)
	w := newWorld(t, func(a *Agent) {
		a.DefaultCacheMode = true // objects come from the agent too
		a.Policy = PolicyFunc(func(string, Action) Decision {
			reached <- time.Now()
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	var dials atomic.Int32
	s := countingJoin(t, w, "alice.lan", &dials)
	s.Delivery = DeliveryLongPoll
	s.LongPollWait = 10 * time.Second
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ObjectsFromAgent == 0 {
		t.Fatal("warm poll fetched no objects from the agent")
	}

	done := make(chan error, 1)
	go func() { _, err := s.PollOnce(); done <- err }()
	waitParked(t, w.agent, 1)
	start := time.Now()
	s.PointerMove(5, 6)
	select {
	case at := <-reached:
		if took := at.Sub(start); took > 100*time.Millisecond {
			t.Fatalf("action reached the host policy after %v, want within 100 ms", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("action never reached the host policy while the poll was parked")
	}
	// The superseded park is answered empty and the action poll parks in its
	// place; a host pointer move answers it.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().EmptyPolls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("parked poll not answered after the action poll superseded it")
		}
		time.Sleep(200 * time.Microsecond)
	}
	waitParked(t, w.agent, 1)
	w.agent.HostAction(Action{Kind: ActionMouseMove, X: 8, Y: 9})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked action poll was not answered by the host's action")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("participant dialed %d connections, want 1 for join, objects, polls and the action", n)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("%d polls still parked", got)
	}
}

// TestPipelinedActionOvertakesParkedPoll is the motivating race: the
// sender's long-poll is parked on the delivery hub, and its action reaches
// the host at once, waking the mirror's parked poll — exactly one wake,
// and no later poll delivers the action a second time. The sender's action
// poll is its park from then on: one poll and one empty answer per action,
// and the next event answers it.
func TestPipelinedActionOvertakesParkedPoll(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	sender := longPollJoin(t, w, "sender.lan", 10*time.Second)
	mirror := longPollJoin(t, w, "mirror.lan", 10*time.Second)
	counts := newMirrorCounter(mirror)

	senderDone := make(chan error, 1)
	mirrorDone := make(chan error, 1)
	go func() { _, err := sender.PollOnce(); senderDone <- err }()
	go func() { _, err := mirror.PollOnce(); mirrorDone <- err }()
	waitParked(t, w.agent, 2)

	before := sender.Stats()
	start := time.Now()
	sender.PointerMove(42, 7) // an action poll, pipelined behind the park
	select {
	case err := <-mirrorDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the mirror's parked poll waited out its hang instead of ending on the action")
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("mirror answered after %v", took)
	}
	if got := counts.count(42); got != 1 {
		t.Fatalf("mirror saw the action %d times, want exactly 1", got)
	}
	// The sender's superseded park is answered empty; its action poll is
	// now the one parked poll, and the mirror's pointer move answers it.
	for deadline := time.Now().Add(5 * time.Second); sender.Stats().EmptyPolls == before.EmptyPolls; {
		if time.Now().After(deadline) {
			t.Fatal("the sender's park was not answered when its action poll arrived")
		}
		time.Sleep(200 * time.Microsecond)
	}
	waitParked(t, w.agent, 1)
	mirror.LongPollWait = time.Millisecond
	mirror.PointerMove(43, 8)
	select {
	case err := <-senderDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the sender's parked action poll waited out its hang instead of ending on the mirror's action")
	}
	st := sender.Stats()
	if got := st.Polls - before.Polls; got != 1 {
		t.Fatalf("sender wrote %d polls during the park, want the one action poll", got)
	}
	if st.ActionsSent != 1 || st.EmptyPolls-before.EmptyPolls != 1 {
		t.Fatalf("sender stats = %+v: want 1 action sent and only the superseded park answered empty", st)
	}

	// The next polls on both sides carry no duplicate.
	mirror.LongPollWait = time.Millisecond
	sender.LongPollWait = time.Millisecond
	for _, s := range []*Snippet{sender, mirror} {
		if _, err := s.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := counts.count(42); got != 1 {
		t.Fatalf("mirror saw the action %d times after draining, want exactly 1 (no redelivery)", got)
	}
	if got := w.agent.DuplicateActions(); got != 0 {
		t.Fatalf("agent filtered %d duplicates, want 0", got)
	}
}

// TestPipelinedActionDocMutationWakesFleet covers the other wake path: a
// forminput sent while parked mutates the host document, so the watcher's
// parked poll and the sender's own action poll both deliver the new content
// at once.
func TestPipelinedActionDocMutationWakesFleet(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/") // google.com: has a search form

	sender := longPollJoin(t, w, "typist.lan", 10*time.Second)
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
	sender.QueueAction(Action{Kind: ActionFormInput, Target: inputPath, Value: "pipelined value"})
	for _, ch := range []chan result{senderDone, watcherDone} {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.updated {
			t.Fatal("poll answered without the mutated content")
		}
	}
	if took := time.Since(start); took >= 5*time.Second {
		t.Fatalf("fleet wake took %v; the action must wake parked polls immediately", took)
	}
	// Both participants converged on the typed value.
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
		if val != "pipelined value" {
			t.Fatalf("participant input value = %q, want %q", val, "pipelined value")
		}
	}
	if st := sender.Stats(); st.DeltaFailures != 0 {
		t.Fatalf("sender resynced %d times", st.DeltaFailures)
	}
}

// TestIntervalModeNeverPushes guards the degradation rule: an interval-mode
// snippet sends nothing when an action is dispatched — the action rides the
// paper's piggyback path on the next poll.
func TestIntervalModeNeverPushes(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()
	counts := newMirrorCounter(bob2)

	polls := alice.Stats().Polls
	alice.PointerMove(9, 9)
	if got := alice.Stats().Polls; got != polls {
		t.Fatalf("interval-mode snippet sent %d requests on dispatch", got-polls)
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
	if st := alice.Stats(); st.ActionsSent != 1 || st.Polls != polls+1 {
		t.Fatalf("stats = %+v: want the action piggybacked on the one poll", st)
	}
}

// TestPipelinedActionServerDownFallsBack covers transport failure: with the
// server gone the action poll cannot go out, the action stays in the
// outbox (no loss), and later actions wait behind it without another doomed
// attempt; a successful poll after the server returns carries them all and
// re-arms the action poll.
func TestPipelinedActionServerDownFallsBack(t *testing.T) {
	var decisions atomic.Int64
	w := newWorld(t, func(a *Agent) {
		a.Policy = PolicyFunc(func(string, Action) Decision {
			decisions.Add(1)
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	var dials atomic.Int32
	s := countingJoin(t, w, "offline.lan", &dials)
	s.Delivery = DeliveryLongPoll
	s.LongPollWait = 10 * time.Second
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}

	w.agent.Close()
	w.server.Close()
	s.PointerMove(1, 1)
	// The failure surfaces on the next poll if the write went into the dead
	// socket; either way the action is still unconfirmed.
	_, _ = s.PollOnce()
	attempts := dials.Load()
	s.PointerMove(2, 2)
	s.PointerMove(3, 3)
	if got := dials.Load(); got != attempts {
		t.Fatalf("dispatch behind a failed action poll dialed %d more times", got-attempts)
	}
	s.mu.Lock()
	queued := s.out.Len()
	s.mu.Unlock()
	if queued != 3 {
		t.Fatalf("outbox=%d while the agent is down, want all 3 actions kept", queued)
	}

	// Server comes back on the same address; the next poll flushes the
	// outbox and re-arms the action poll.
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	server2 := &httpwire.Server{Handler: w.agent}
	server2.Start(l)
	t.Cleanup(server2.Close)
	s.LongPollWait = time.Millisecond
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	queued = s.out.Len()
	s.mu.Unlock()
	if queued != 0 {
		t.Fatalf("successful poll left %d actions in the outbox", queued)
	}
	if got := decisions.Load(); got != 3 {
		t.Fatalf("host policy saw %d actions, want 3", got)
	}
	s.PointerMove(4, 4)
	deadline := time.Now().Add(5 * time.Second)
	for decisions.Load() != 4 {
		if time.Now().After(deadline) {
			t.Fatal("action poll not re-armed after the recovery poll")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinedActionRejectedFallsBack covers protocol failure: the action
// poll of a disconnected participant (moderation's remove lever) is refused
// with 403, the action stays unconfirmed, and the client learns the
// disconnect from that answer.
func TestPipelinedActionRejectedFallsBack(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "evicted.lan", 10*time.Second)

	w.agent.Disconnect("p1") // the only participant
	s.PointerMove(5, 5)
	if _, err := s.PollOnce(); err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("poll after disconnect returned %v, want a 403 error", err)
	}
	s.mu.Lock()
	queued := s.out.Len()
	s.mu.Unlock()
	if queued != 1 {
		t.Fatalf("rejected action not preserved in the outbox (len=%d)", queued)
	}
	if got := s.Stats().LastCloseReason; got != CloseLeave {
		t.Fatalf("close reason = %v, want LEAVE", got)
	}
}

// TestPipelinedActionAuth checks that action polls carry the same §3.4
// HMAC as every other poll: a signed one reaches the policy, a forged one
// is refused with 401.
func TestPipelinedActionAuth(t *testing.T) {
	key := NewSessionKey()
	var decisions atomic.Int64
	w := newWorld(t, func(a *Agent) {
		a.Auth = NewAuthenticator(key)
		a.Policy = PolicyFunc(func(string, Action) Decision {
			decisions.Add(1)
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	alice := w.joinWithKey(t, "alice.lan", key)
	alice.Delivery = DeliveryLongPoll
	alice.LongPollWait = time.Millisecond
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	alice.PointerMove(1, 2)
	if _, err := alice.PollOnce(); err != nil {
		t.Fatalf("signed action poll rejected: %v", err)
	}

	mallory := w.joinWithKey(t, "mallory.lan", "wrong-key")
	mallory.Delivery = DeliveryLongPoll
	mallory.PointerMove(3, 4)
	if _, err := mallory.PollOnce(); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("forged action poll returned %v, want 401", err)
	}
	if got := decisions.Load(); got != 1 {
		t.Fatalf("host policy saw %d actions, want only the signed one", got)
	}
}

// TestWakeCrossingSupersedeConverges: a parked poll is woken by a host
// change, and before its answer is read the participant's action poll goes
// out with the same acknowledged ts — so both answers carry the delta from
// that ts. The first installs it; the second, answering a ts the client no
// longer holds, only mirrors its actions: no ErrDeltaBase, no resync, and
// the replica matches a fresh join byte for byte.
func TestWakeCrossingSupersedeConverges(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "alice.lan", 10*time.Second)
	mutateBody(t, w)
	if _, err := s.PollOnce(); err != nil { // take a delta base
		t.Fatal(err)
	}
	ts := s.DocTime()
	before := s.Stats()

	s.sendMu.Lock()
	err := s.writePoll(false) // parks; its answer is read below
	s.sendMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitParked(t, w.agent, 1)
	mutateBody(t, w)
	for deadline := time.Now().Add(5 * time.Second); w.agent.ParkedPolls() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the host change did not wake the parked poll")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.PointerMove(7, 7) // written at ts, behind the woken poll
	s.mu.Lock()
	pending := len(s.polls)
	s.mu.Unlock()
	if pending != 2 {
		t.Fatalf("%d polls awaiting answers, want the woken one and the action poll", pending)
	}

	updated, err := s.readPolls()
	if err != nil {
		t.Fatalf("crossing answers failed: %v", err)
	}
	if !updated {
		t.Fatal("neither answer installed the new document")
	}
	st := s.Stats()
	if st.DeltaFailures != before.DeltaFailures || st.ContentPolls != before.ContentPolls+1 {
		t.Fatalf("stats %+v after %+v: want exactly one install and no failed delta", st, before)
	}
	if got, want := s.DocTime(), w.agent.LatestDocTime(); got == ts || got != want {
		t.Fatalf("docTime %d (was %d), want the agent's latest %d", got, ts, want)
	}
	ref := w.join(t, "ref.lan")
	if _, err := ref.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := docHTML(t, s.Browser), docHTML(t, ref.Browser); got != want {
		t.Fatalf("replica diverged from a fresh join:\n got: %s\nwant: %s", got, want)
	}
}

// TestMirrorsCarryNoReplayStamps guards the replay filter against forgery.
// The filter keys on the client ID alone, so a participant that learned
// another's (CID, CSeq) could stamp a forged action far ahead of it and
// have the victim's next actions dropped as duplicates. A mirrored action
// holds only what a receiver applies, so the attacker learns no stamp, and
// the victim's next pointer move still reaches the host policy.
func TestMirrorsCarryNoReplayStamps(t *testing.T) {
	var mu sync.Mutex
	decided := make(map[int]int) // pointer X → policy decisions
	w := newWorld(t, func(a *Agent) {
		a.Policy = PolicyFunc(func(_ string, act Action) Decision {
			mu.Lock()
			decided[act.X]++
			mu.Unlock()
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	victim := w.join(t, "victim.lan")
	attacker := w.join(t, "attacker.lan")
	var mirrored []Action
	attacker.OnUserAction = func(act Action) {
		mu.Lock()
		mirrored = append(mirrored, act)
		mu.Unlock()
	}
	poll := func(s *Snippet) {
		t.Helper()
		if _, err := s.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	poll(victim)
	poll(attacker)

	victim.PointerMove(11, 1)
	poll(victim)
	poll(attacker)
	mu.Lock()
	if len(mirrored) != 1 || mirrored[0].X != 11 {
		mu.Unlock()
		t.Fatalf("attacker mirrored %v, want the victim's pointer move", mirrored)
	}
	seen := mirrored[0]
	mu.Unlock()

	// Forge an action under whatever stamp the mirror revealed.
	attacker.QueueAction(Action{Kind: ActionMouseMove, X: 99, Y: 1, CID: seen.CID, CSeq: seen.CSeq + 100000})
	poll(attacker)
	victim.PointerMove(12, 1)
	poll(victim)
	mu.Lock()
	got := decided[12]
	mu.Unlock()
	if got != 1 {
		t.Fatalf("host policy saw the victim's next pointer move %d times, want 1", got)
	}
	if got := w.agent.DuplicateActions(); got != 0 {
		t.Fatalf("replay filter dropped %d actions, want 0", got)
	}
	if seen.CID != "" || seen.CSeq != 0 {
		t.Fatalf("mirror carried replay stamps cid=%q cseq=%d, want none", seen.CID, seen.CSeq)
	}
}

// TestParkedActionPollDropReplaysOnce covers the window an action poll's
// park opens: the agent merged the action and parked the poll, then the
// connection drops before any answer. The client resends the poll on a
// fresh connection; the replay filter drops the copy, which parks in the
// old one's place, so the host policy sees the action once and the outbox
// drains when the next change answers it.
func TestParkedActionPollDropReplaysOnce(t *testing.T) {
	var decisions atomic.Int64
	w := newWorld(t, func(a *Agent) {
		a.Policy = PolicyFunc(func(string, Action) Decision {
			decisions.Add(1)
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "dropped.lan", 10*time.Second)

	s.PointerMove(5, 6) // merged, then parked
	for deadline := time.Now().Add(5 * time.Second); decisions.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("action never reached the host policy")
		}
		time.Sleep(200 * time.Microsecond)
	}
	waitParked(t, w.agent, 1)
	if n := w.corpus.Network.ResetConns(agentAddr); n == 0 {
		t.Fatal("no connection to reset")
	}
	done := make(chan error, 1)
	go func() {
		updated, err := s.PollOnce()
		if err == nil && !updated {
			err = fmt.Errorf("replayed action poll answered without the change")
		}
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); w.agent.DuplicateActions() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the dropped action poll was never replayed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	waitParked(t, w.agent, 1)
	mutateBody(t, w)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the replayed action poll was not answered by the host change")
	}
	if got := decisions.Load(); got != 1 {
		t.Fatalf("host policy saw the action %d times, want once", got)
	}
	if got := w.agent.DuplicateActions(); got != 1 {
		t.Fatalf("DuplicateActions = %d, want 1 (the replay)", got)
	}
	s.mu.Lock()
	queued := s.out.Len()
	s.mu.Unlock()
	if queued != 0 {
		t.Fatalf("outbox holds %d actions after the replay was answered, want 0", queued)
	}
}
