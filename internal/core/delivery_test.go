package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// waitParked polls the agent until n long-polls are parked.
func waitParked(t *testing.T, a *Agent, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.ParkedPolls() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d polls parked, want %d", a.ParkedPolls(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// longPollJoin connects a participant configured for hanging-GET delivery
// and warms it onto the current document version so its next poll parks.
func longPollJoin(t *testing.T, w *world, loc string, wait time.Duration) *Snippet {
	t.Helper()
	s := w.join(t, loc)
	s.Delivery = DeliveryLongPoll
	s.LongPollWait = wait
	if _, err := s.PollOnce(); err != nil {
		t.Fatalf("warm poll for %s: %v", loc, err)
	}
	return s
}

// TestLongPollWakesOnDocChange checks the core push path: a parked poll
// completes with the new content as soon as the host document changes —
// no interval in the staleness path.
func TestLongPollWakesOnDocChange(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "alice.lan", 5*time.Second)

	type result struct {
		updated bool
		err     error
		took    time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		updated, err := s.PollOnce()
		done <- result{updated, err, time.Since(start)}
	}()
	waitParked(t, w.agent, 1)

	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-longpoll", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.updated {
		t.Fatal("woken long-poll carried no content")
	}
	if r.took >= 5*time.Second {
		t.Fatalf("long-poll took the full hang (%v); wake-up did not fire", r.took)
	}
	var attr string
	err = s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		attr = doc.Body().AttrOr("data-longpoll", "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attr != "1" {
		t.Fatalf("participant body data-longpoll = %q, want \"1\"", attr)
	}
}

// TestLongPollFanoutSingleFlight parks many participants and bumps the
// document once: every poll must wake with the same content while the
// Figure 3 pipeline runs exactly once — the single-flight invariant under
// the new wake path. Run with -race.
func TestLongPollFanoutSingleFlight(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 16
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = longPollJoin(t, w, fmt.Sprintf("p%d.lan", i), 10*time.Second)
	}

	builds0 := w.agent.ContentBuilds()
	var wg sync.WaitGroup
	errs := make([]error, n)
	updated := make([]bool, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			updated[i], errs[i] = s.PollOnce()
		}(i, s)
	}
	waitParked(t, w.agent, n)

	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-fanout", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("poll %d: %v", i, errs[i])
		}
		if !updated[i] {
			t.Errorf("poll %d woke without content", i)
		}
	}
	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Errorf("one doc change woke %d participants with %d BuildContent runs; want exactly 1", n, got)
	}
	want := snippets[0].DocTime()
	for i, s := range snippets {
		if got := s.DocTime(); got != want {
			t.Errorf("participant %d docTime = %d, want %d (all must share one prepared message)", i, got, want)
		}
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Errorf("%d polls still parked after the wake", got)
	}
}

// TestHostActionWakesParkedPolls checks the outbox wake path under -race:
// N concurrent long-polls all wake on one HostAction, each carrying the
// mirrored action.
func TestHostActionWakesParkedPolls(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 8
	var mirrored sync.Map
	snippets := make([]*Snippet, n)
	for i := range snippets {
		i := i
		snippets[i] = longPollJoin(t, w, fmt.Sprintf("h%d.lan", i), 10*time.Second)
		snippets[i].OnUserAction = func(act Action) {
			if act.Kind == ActionMouseMove {
				mirrored.Store(i, act)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			_, errs[i] = s.PollOnce()
		}(i, s)
	}
	waitParked(t, w.agent, n)

	start := time.Now()
	w.agent.HostAction(Action{Kind: ActionMouseMove, X: 7, Y: 9})
	wg.Wait()
	took := time.Since(start)

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("poll %d: %v", i, errs[i])
		}
		if _, ok := mirrored.Load(i); !ok {
			t.Errorf("participant %d woke without the mirrored action", i)
		}
	}
	if took >= 10*time.Second {
		t.Fatalf("wake took the full hang (%v)", took)
	}
}

// TestDisconnectWakesParkedPoll checks the lifecycle edge: disconnecting a
// participant completes its parked poll immediately with the same 403 an
// unknown participant gets, instead of leaving it hanging until timeout.
func TestDisconnectWakesParkedPoll(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "leaver.lan", 10*time.Second)

	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := s.PollOnce()
		errCh <- err
	}()
	waitParked(t, w.agent, 1)

	w.agent.Disconnect("p1") // joins are sequential; the only participant is p1
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Fatalf("disconnected long-poll returned %v, want a 403 error", err)
	}
	if took := time.Since(start); took >= 10*time.Second {
		t.Fatalf("disconnect wake took the full hang (%v)", took)
	}
}

// TestLongPollTimeoutDegradesToEmpty checks the fallback: with nothing to
// deliver, a parked poll completes at its requested hang with the §4.1.1
// empty response, counted as an empty poll like any interval-mode miss.
func TestLongPollTimeoutDegradesToEmpty(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "idle.lan", 80*time.Millisecond)

	start := time.Now()
	updated, err := s.PollOnce()
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Fatal("idle long-poll reported content")
	}
	if took < 50*time.Millisecond {
		t.Fatalf("idle long-poll returned after %v; it never parked", took)
	}
	if got := s.Stats().EmptyPolls; got != 1 {
		t.Fatalf("EmptyPolls = %d, want 1", got)
	}
}

// TestAgentCloseWakesParkedPolls checks the drain path: Agent.Close
// completes every parked poll with the empty response, and later long-polls
// answer immediately instead of parking.
func TestAgentCloseWakesParkedPolls(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "drain.lan", 10*time.Second)

	done := make(chan bool, 1)
	start := time.Now()
	go func() {
		updated, err := s.PollOnce()
		if err != nil {
			t.Error(err)
		}
		done <- updated
	}()
	waitParked(t, w.agent, 1)

	w.agent.Close()
	if updated := <-done; updated {
		t.Fatal("drained poll reported content")
	}
	if took := time.Since(start); took >= 10*time.Second {
		t.Fatalf("close wake took the full hang (%v)", took)
	}
	// After Close the agent still answers, but never parks.
	start = time.Now()
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 10*time.Second {
		t.Fatalf("post-close poll hung (%v)", took)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("%d polls parked on a closed agent", got)
	}
}

// TestActionCarryingLongPollParks pins the action poll's contract: it asks
// for the hang, the agent merges its actions at once and then parks it like
// any other poll, and the next change answers it — the action poll is the
// participant's park, not an extra exchange in front of one.
func TestActionCarryingLongPollParks(t *testing.T) {
	reached := make(chan Action, 1)
	w := newWorld(t, func(a *Agent) {
		a.Policy = PolicyFunc(func(_ string, act Action) Decision {
			reached <- act
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "mover.lan", 10*time.Second)

	before := s.Stats()
	s.PointerMove(3, 4) // written at once as an action poll
	select {
	case act := <-reached:
		if act.X != 3 || act.Y != 4 {
			t.Fatalf("policy saw %v, want the pointer move", act)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("action never reached the host policy")
	}
	waitParked(t, w.agent, 1)

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		updated, err := s.PollOnce()
		if err == nil && !updated {
			err = fmt.Errorf("parked action poll answered without the change")
		}
		done <- err
	}()
	mutateBody(t, w)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the host change did not answer the parked action poll")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("parked action poll answered after %v", took)
	}
	st := s.Stats()
	if got := st.Polls - before.Polls; got != 1 {
		t.Fatalf("%d polls written, want the one action poll, which was PollOnce's park", got)
	}
	if got := st.EmptyPolls - before.EmptyPolls; got != 0 {
		t.Fatalf("%d empty answers, want none", got)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("%d polls still parked", got)
	}
}

// TestParkDeniedPacesRun guards against the closed-hub busy loop: when the
// agent answers a park request instantly empty (hub closed, server alive),
// the snippet must report the denial so Run falls back to interval pacing
// instead of re-issuing at network speed.
func TestParkDeniedPacesRun(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "denied.lan", 10*time.Second)

	w.agent.Close()
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if !s.lastParkDenied() {
		t.Fatal("instant empty answer to a park request not flagged as denied")
	}
	// A healthy timeout at the requested hang is pacing, not denial.
	w2 := newWorld(t, func(a *Agent) { a.MaxPollWait = 250 * time.Millisecond })
	w2.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s2 := longPollJoin(t, w2, "timely.lan", 10*time.Second)
	if _, err := s2.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if s2.lastParkDenied() {
		t.Fatal("server-capped timeout misread as a park denial")
	}
}

// fakeWaiter parks a no-op waiter directly on a hub and reports when it is
// fulfilled.
func fakeWaiter(t *testing.T, h *deliveryHub, pid string) (done chan struct{}) {
	t.Helper()
	done = make(chan struct{})
	w := &pollWaiter{pid: pid, fulfill: func(*pollReply) { close(done) }}
	parked, _ := h.park(w, h.snapshot(pid), time.Minute)
	if !parked {
		t.Fatalf("waiter %s refused to park", pid)
	}
	return done
}

// TestHubRefusesStaleSnapshotPark pins the check-then-park guard at the
// hub: a notification between a poll's snapshot and its park refuses the
// park, so the poll re-runs its content check instead of sleeping through
// the change. A poll parked on a fresh snapshot is woken by the next
// change, in one fan-out round.
func TestHubRefusesStaleSnapshotPark(t *testing.T) {
	h := newDeliveryHub()
	defer h.close()
	for name, notify := range map[string]func(){
		"document change": h.notifyAll,
		"mirror action":   func() { h.notifyPID("p1") },
	} {
		snap := h.snapshot("p1")
		notify()
		w := &pollWaiter{pid: "p1", fulfill: func(*pollReply) {}}
		if parked, retry := h.park(w, snap, time.Minute); parked || !retry {
			t.Fatalf("%s before the park: parked=%v retry=%v, want a refused park and a re-check", name, parked, retry)
		}
	}
	done := fakeWaiter(t, h, "p1")
	h.notifyAll()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("the change after the park did not wake the parked poll")
	}
	if got := h.wakeFanouts(); got != 1 {
		t.Fatalf("%d fan-outs, want 1: only the last change found a poll parked", got)
	}
}

// TestBurstWakeEndToEnd drives a burst over the real stack: parked
// long-poll participants, eight rapid host mutations, and every participant
// converging on the final version.
func TestBurstWakeEndToEnd(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 4
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = longPollJoin(t, w, fmt.Sprintf("b%d.lan", i), 10*time.Second)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, s := range snippets {
		wg.Add(1)
		go func(i int, s *Snippet) {
			defer wg.Done()
			// Poll until this participant reaches the final version.
			for {
				updated, err := s.PollOnce()
				if err != nil {
					errs[i] = err
					return
				}
				if updated && s.Stats().ContentPolls >= 2 {
					return
				}
			}
		}(i, s)
	}
	waitParked(t, w.agent, n)

	const bumps = 8
	for tick := 1; tick <= bumps; tick++ {
		err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-burst", fmt.Sprint(tick))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	// Everyone holds the final content.
	final := fmt.Sprint(bumps)
	for i, s := range snippets {
		// The last wake served the latest version; participants that stopped
		// at an intermediate version poll once more to drain.
		for {
			var attr string
			err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
				attr = doc.Body().AttrOr("data-burst", "")
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attr == final {
				break
			}
			if _, err := s.PollOnce(); err != nil {
				t.Fatalf("participant %d drain poll: %v", i, err)
			}
		}
	}
}

// TestIntervalPollUnaffectedByHub checks backward compatibility: a default
// (interval-mode) snippet never parks and still sees immediate empty
// responses — the paper's protocol byte-for-byte.
func TestIntervalPollUnaffectedByHub(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "classic.lan")

	if updated, err := s.PollOnce(); err != nil || !updated {
		t.Fatalf("first poll: updated=%v err=%v", updated, err)
	}
	start := time.Now()
	updated, err := s.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Fatal("no-change poll reported content")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("interval poll blocked for %v", took)
	}
	if got := w.agent.ParkedPolls(); got != 0 {
		t.Fatalf("interval poll parked (%d waiters)", got)
	}
}

// TestGhostPollIsSuperseded: a participant that polls again on a second
// connection while its first poll is parked keeps one parked poll — the
// newer — and the first is answered at once with the plain empty response.
// The ghost does not count toward the shed ladder's parked signal either.
func TestGhostPollIsSuperseded(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.Shed = ShedWatermarks{ParkedHigh: 2} })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "ghost.lan", 10*time.Second)

	first := make(chan error, 1)
	go func() {
		updated, err := s.PollOnce()
		if err == nil && updated {
			err = fmt.Errorf("superseded poll delivered content")
		}
		first <- err
	}()
	waitParked(t, w.agent, 1)

	hc := httpwire.NewClient(w.corpus.Network.Dialer("ghost2.lan"))
	defer hc.Close()
	second := make(chan error, 1)
	go func() {
		req := s.request("/poll", []httpwire.FormField{
			{Name: "ts", Value: strconv.FormatInt(s.DocTime(), 10)},
			{Name: "wait", Value: "10000"},
		})
		_, err := hc.DoTimeout(agentAddr, req, 15*time.Second)
		second <- err
	}()
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first poll stayed parked after its participant polled again")
	}
	waitParked(t, w.agent, 1)
	time.Sleep(20 * time.Millisecond)
	if got := w.agent.ParkedPolls(); got != 1 {
		t.Fatalf("ParkedPolls = %d, want 1 (the newer poll only)", got)
	}
	if lvl := w.agent.EvaluateLoad(); lvl != ShedNone {
		t.Fatalf("shed ladder climbed to %v on a ghost poll", lvl)
	}
	w.agent.Close()
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}
