package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// fullJitter pins the jitter factor to 1.0 so Next() returns the exact
// exponential envelope — the deterministic rand the backoff tests inject.
func fullJitter() float64 { return 1.0 }

// TestBackoffGrowthCapAndReset pins the envelope: delays double from Base,
// clamp at Max, and snap back to Base after Reset.
func TestBackoffGrowthCapAndReset(t *testing.T) {
	b := newBackoff(100*time.Millisecond, 800*time.Millisecond, fullJitter)
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next() #%d = %v, want %v", i, got, w)
		}
	}
	if got := b.Attempts(); got != len(want) {
		t.Fatalf("Attempts() = %d, want %d", got, len(want))
	}
	b.Reset()
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("Next() after Reset = %v, want Base", got)
	}
}

// TestBackoffJitterEnvelope checks the jitter range [d/2, d]: rand 0 gives
// the half, rand 1 the full envelope.
func TestBackoffJitterEnvelope(t *testing.T) {
	lo := newBackoff(200*time.Millisecond, time.Second, func() float64 { return 0 })
	if got := lo.Next(); got != 100*time.Millisecond {
		t.Fatalf("rand=0 Next() = %v, want d/2", got)
	}
	hi := newBackoff(200*time.Millisecond, time.Second, fullJitter)
	if got := hi.Next(); got != 200*time.Millisecond {
		t.Fatalf("rand=1 Next() = %v, want d", got)
	}
	// nil rand stays inside the envelope too.
	def := newBackoff(200*time.Millisecond, time.Second, nil)
	if got := def.Next(); got < 100*time.Millisecond || got > 200*time.Millisecond {
		t.Fatalf("default rand Next() = %v, outside [d/2, d]", got)
	}
}

// TestBackoffDefaults checks newBackoff's zero-value handling.
func TestBackoffDefaults(t *testing.T) {
	b := newBackoff(0, 0, fullJitter)
	if b.Base != 100*time.Millisecond || b.Max != 30*time.Second {
		t.Fatalf("defaults = %v/%v", b.Base, b.Max)
	}
	// Max below Base clamps up, never inverts.
	b2 := newBackoff(time.Second, 10*time.Millisecond, fullJitter)
	if b2.Max != time.Second {
		t.Fatalf("Max < Base left as %v", b2.Max)
	}
}

// TestPollBackoffGrowthAndResetOnSuccess drives the Run pacing function
// directly with a deterministic rand: consecutive failures climb the
// exponential ladder, hit the cap, and a single success resets it and
// restores the long-poll zero delay.
func TestPollBackoffGrowthAndResetOnSuccess(t *testing.T) {
	s := &Client{
		PollInterval: time.Second,
		Delivery:     DeliveryLongPoll,
		RetryBase:    100 * time.Millisecond,
		RetryMax:     400 * time.Millisecond,
		RetryRand:    fullJitter,
	}
	flap := errors.New("connection reset")
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := s.runDelay(flap, time.Second); got != w {
			t.Fatalf("failure #%d delay = %v, want %v", i, got, w)
		}
	}
	// The server answers again: backoff resets, long-poll re-parks at once.
	if got := s.runDelay(nil, time.Second); got != 0 {
		t.Fatalf("healthy long-poll delay = %v, want 0", got)
	}
	if got := s.runDelay(flap, time.Second); got != 100*time.Millisecond {
		t.Fatalf("first failure after success = %v, want Base again", got)
	}
}

// TestRunDelayHonorsServerRetryAfter checks the shed-ladder handshake: a
// server-assigned Rcb-Retry-After is the floor for the next poll delay even
// when the local schedule would retry sooner.
func TestRunDelayHonorsServerRetryAfter(t *testing.T) {
	s := &Client{
		PollInterval: 50 * time.Millisecond,
		Delivery:     DeliveryLongPoll,
		RetryBase:    50 * time.Millisecond,
		RetryRand:    fullJitter,
	}
	s.mu.Lock()
	s.retryAfter = 2 * time.Second
	s.parkDenied = true
	s.mu.Unlock()
	if got := s.runDelay(nil, 50*time.Millisecond); got != 2*time.Second {
		t.Fatalf("delay = %v, want the server's 2s retry-after", got)
	}
}

// TestRunDelayBacksOffOnAgentClosing checks satellite (b) end to end at the
// pacing layer: an empty poll marked AgentClosing is a success on the wire
// but must climb the backoff ladder, not re-park at network speed.
func TestRunDelayBacksOffOnAgentClosing(t *testing.T) {
	s := &Client{
		PollInterval: time.Second,
		Delivery:     DeliveryLongPoll,
		RetryBase:    100 * time.Millisecond,
		RetryMax:     time.Second,
		RetryRand:    fullJitter,
	}
	s.mu.Lock()
	s.agentClosing = true
	s.parkDenied = true
	s.mu.Unlock()
	if got := s.runDelay(nil, time.Second); got != 100*time.Millisecond {
		t.Fatalf("first AgentClosing delay = %v, want Base", got)
	}
	if got := s.runDelay(nil, time.Second); got != 200*time.Millisecond {
		t.Fatalf("second AgentClosing delay = %v, want doubled", got)
	}
}

// TestAgentCloseMarksAgentClosing checks satellite (b) on the wire: after
// Agent.Close, the completed parked poll and every later would-be park carry
// the AGENT_CLOSING close reason on their empty responses, and the snippet
// records it.
func TestAgentCloseMarksAgentClosing(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "closing.lan", 10*time.Second)

	done := make(chan error, 1)
	go func() {
		_, err := s.PollOnce()
		done <- err
	}()
	waitParked(t, w.agent, 1)
	w.agent.Close()
	if err := <-done; err != nil {
		t.Fatalf("drained poll errored: %v", err)
	}
	if got := s.LastCloseReason(); got != CloseAgentClosing {
		t.Fatalf("close reason after drain = %v, want AGENT_CLOSING", got)
	}
	// The next poll (answered immediately, never parked) carries it too,
	// and the snippet treats it as a park denial so Run paces itself.
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if !s.lastParkDenied() {
		t.Fatal("post-close poll not treated as park-denied")
	}
	s.mu.Lock()
	closing := s.agentClosing
	s.mu.Unlock()
	if !closing {
		t.Fatal("post-close poll did not mark agentClosing")
	}
}

// TestPushBackoffSuspendProbeAndReset checks the action-poll suspension
// the outbox derives against a genuinely flapping server: a failed action
// poll keeps its action in the outbox and holds further action polls back;
// while held, later actions skip the doomed attempt and wait behind it; a
// successful poll carries the whole backlog in order and re-arms the
// action poll.
func TestPushBackoffSuspendProbeAndReset(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "pusher.lan")
	s.Delivery = DeliveryLongPoll
	s.LongPollWait = time.Millisecond
	s.RetryBase = 50 * time.Millisecond
	s.RetryMax = time.Second
	s.RetryRand = fullJitter
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// Flap: the server goes away mid-session.
	w.agent.Close()
	w.server.Close()

	s.PointerMove(1, 1) // the action poll fails → the action stays in the outbox
	if _, err := s.PollOnce(); err == nil {
		t.Fatal("poll against a closed server succeeded")
	}
	polls := s.Stats().Polls
	// While the failed action waits, later actions are not even attempted.
	s.PointerMove(2, 2)
	s.PointerMove(3, 3)
	if got := s.Stats().Polls; got != polls {
		t.Fatalf("held-back dispatch still wrote %d action polls", got-polls)
	}
	s.mu.Lock()
	queued := s.out.Len()
	s.mu.Unlock()
	if queued != 3 {
		t.Fatalf("outbox holds %d actions while held back, want 3", queued)
	}

	// The server comes back; a successful poll carries the backlog and
	// re-arms the action poll.
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: w.agent}
	srv.Start(l)
	t.Cleanup(srv.Close)
	sent := s.Stats().ActionsSent
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ActionsSent - sent; got != 3 {
		t.Fatalf("recovery poll carried %d actions, want 3", got)
	}
	s.mu.Lock()
	queued = s.out.Len()
	s.mu.Unlock()
	if queued != 0 {
		t.Fatalf("outbox holds %d actions after the 200, want 0", queued)
	}
	polls = s.Stats().Polls
	s.PointerMove(4, 4)
	if got := s.Stats().Polls; got != polls+1 {
		t.Fatalf("after the poll: dispatch wrote %d action polls, want the action poll re-armed (1)", got-polls)
	}
}

// TestRunAutoRejoinsAfterRetryableClose is the flapping-session recovery
// test: the agent kicks a participant with a retryable reason mid-loop, and
// Run rejoins under a fresh identity, resyncs a full snapshot, and keeps
// delivering — while a non-retryable kick ends the loop for good.
func TestRunAutoRejoinsAfterRetryableClose(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "phoenix.lan")
	s.Delivery = DeliveryLongPoll
	s.LongPollWait = 200 * time.Millisecond
	s.PollInterval = 20 * time.Millisecond
	s.RetryBase = 10 * time.Millisecond
	s.RetryMax = 50 * time.Millisecond
	s.RetryRand = fullJitter

	stop := make(chan struct{})
	ran := make(chan struct{})
	var errSeen error
	go func() {
		s.Run(stop, func(err error) {
			if errSeen == nil {
				errSeen = err
			}
		})
		close(ran)
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("initial sync", func() bool { return s.Stats().ContentPolls >= 1 })

	// Kick with a retryable reason: the loop must rejoin and resync.
	parts := w.agent.Participants()
	if len(parts) != 1 {
		t.Fatalf("participants = %d", len(parts))
	}
	w.agent.DisconnectWith(parts[0].ID, CloseStaleReader)
	waitFor("automatic rejoin", func() bool { return s.Stats().Rejoins >= 1 })
	waitFor("post-rejoin resync", func() bool { return s.Stats().ContentPolls >= 2 })
	if got := s.LastCloseReason(); got != CloseStaleReader {
		t.Fatalf("recorded close reason = %v, want STALE_READER", got)
	}
	if errSeen == nil || !strings.Contains(errSeen.Error(), "STALE_READER") {
		t.Fatalf("errf saw %v, want the STALE_READER close error", errSeen)
	}

	// Kick with a non-retryable reason: the loop must end by itself.
	parts = w.agent.Participants()
	if len(parts) != 1 {
		t.Fatalf("participants after rejoin = %d", len(parts))
	}
	w.agent.Kick(parts[0].ID)
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not terminate after a KICKED close")
	}
	close(stop)
	if got := s.LastCloseReason(); got != CloseKicked {
		t.Fatalf("final close reason = %v, want KICKED", got)
	}
}

// TestRejoinResetsJoinBackoffAndSyncState checks the recovery bookkeeping:
// a successful Rejoin clears the acknowledged timestamp (forcing a full
// snapshot), resets the join schedule, and counts the cycle.
func TestRejoinResetsJoinBackoffAndSyncState(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "rejoiner.lan")
	s.RetryRand = fullJitter
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if s.DocTime() == 0 {
		t.Fatal("no baseline to test against")
	}
	s.mu.Lock()
	_, join := s.backoffsLocked()
	join.Next()
	join.Next()
	s.mu.Unlock()

	if err := s.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if s.DocTime() != 0 {
		t.Fatal("Rejoin kept the stale acknowledged timestamp")
	}
	if got := s.Stats().Rejoins; got != 1 {
		t.Fatalf("Rejoins = %d, want 1", got)
	}
	s.mu.Lock()
	attempts := s.joinBackoff.Attempts()
	s.mu.Unlock()
	if attempts != 0 {
		t.Fatalf("join backoff attempts after success = %d, want 0", attempts)
	}
	// The next poll after a rejoin is a full resync.
	updated, err := s.PollOnce()
	if err != nil || !updated {
		t.Fatalf("post-rejoin poll: updated=%v err=%v", updated, err)
	}
}
