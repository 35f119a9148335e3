package core

// Persistent-channel tests: the POST /channel upgrade, push fan-out without
// park/wake, the action upstream riding the same socket, resync over a live
// channel, shed refusal and teardown, and the MOVED-over-a-live-channel
// handover scenario.

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// waitUntil spins until cond holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// duplexJoin connects a participant in duplex mode and starts its channel
// session on a background goroutine; the session ends when the returned
// stop channel closes (or the agent closes it first).
func duplexJoin(t *testing.T, w *world, loc string) (*Snippet, chan struct{}, chan error) {
	t.Helper()
	s := w.join(t, loc)
	s.Delivery = DeliveryDuplex
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.DuplexOnce(stop)
		close(done) // cleanup can wait on done even after a test drained the error
	}()
	t.Cleanup(func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		<-done
	})
	return s, stop, done
}

// TestChannelPushFanout is the tentpole property: N attached channels all
// receive a document change instantly — one BuildContent run fans shared
// bytes to every channel, with zero polling requests involved.
func TestChannelPushFanout(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 4
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i], _, _ = duplexJoin(t, w, "fan"+strconv.Itoa(i)+".lan")
	}
	waitUntil(t, "channels attached", func() bool { return w.agent.ChannelsOpen() == n })
	// The upgrade's first flush pushes the initial snapshot (ts=0).
	for i, s := range snippets {
		i, s := i, s
		waitUntil(t, "initial push to snippet "+strconv.Itoa(i), func() bool { return s.DocTime() > 0 })
	}

	builds0 := w.agent.ContentBuilds()
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-duplex", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snippets {
		s := s
		waitUntil(t, "fanout to snippet "+strconv.Itoa(i), func() bool {
			var attr string
			_ = s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
				attr = doc.Body().AttrOr("data-duplex", "")
				return nil
			})
			return attr == "1"
		})
	}
	if got := w.agent.ContentBuilds() - builds0; got != 1 {
		t.Errorf("one doc change ran BuildContent %d times across %d channels; want exactly 1", got, n)
	}
	for i, s := range snippets {
		st := s.Stats()
		if st.Polls != 0 {
			t.Errorf("snippet %d issued %d polling requests in duplex mode; want 0", i, st.Polls)
		}
		if st.DuplexUpgrades != 1 || st.DuplexFramesIn == 0 {
			t.Errorf("snippet %d duplex stats: upgrades=%d framesIn=%d", i, st.DuplexUpgrades, st.DuplexFramesIn)
		}
	}
	if w.agent.FramesOut() < n {
		t.Errorf("agent FramesOut = %d, want >= %d", w.agent.FramesOut(), n)
	}
}

// TestChannelActionUpstream sends an action as a channel frame: it must
// reach the policy exactly once, mirror out to a long-poll participant, and
// the FrameActionAck must empty the client's outbox.
func TestChannelActionUpstream(t *testing.T) {
	var decisions atomic.Int64
	w := newWorld(t, func(a *Agent) {
		a.Policy = PolicyFunc(func(string, Action) Decision {
			decisions.Add(1)
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	alice, _, _ := duplexJoin(t, w, "alice.lan")
	waitUntil(t, "alice synced", func() bool { return alice.DocTime() > 0 })

	mirrored := make(chan Action, 4)
	bob := longPollJoin(t, w, "bob.lan", 10*time.Second)
	bob.OnUserAction = func(act Action) {
		if act.Kind == ActionMouseMove {
			mirrored <- act
		}
	}
	pollDone := make(chan error, 1)
	go func() {
		_, err := bob.PollOnce()
		pollDone <- err
	}()
	waitParked(t, w.agent, 1)

	alice.PointerMove(41, 42)
	if err := <-pollDone; err != nil {
		t.Fatal(err)
	}
	select {
	case act := <-mirrored:
		if act.X != 41 || act.Y != 42 {
			t.Fatalf("mirrored action = (%d,%d), want (41,42)", act.X, act.Y)
		}
	default:
		t.Fatal("bob's woken poll carried no mirrored action")
	}
	if got := decisions.Load(); got != 1 {
		t.Errorf("channel action reached the policy %d times, want exactly once", got)
	}
	waitUntil(t, "action ack drains the outbox", func() bool {
		alice.mu.Lock()
		defer alice.mu.Unlock()
		return alice.out.Len() == 0
	})
	if st := alice.Stats(); st.DuplexActionsSent != 1 {
		t.Errorf("DuplexActionsSent = %d, want 1", st.DuplexActionsSent)
	}
	if w.agent.FramesIn() == 0 {
		t.Error("agent read no frames from an action-carrying channel")
	}
}

// TestChannelResyncOnZeroAck drives the raw frame protocol: an ack of 0 is
// a desync report, answered with a fresh full snapshot over the same
// channel; pings echo as pongs.
func TestChannelResyncOnZeroAck(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "raw.lan")
	addr, err := s.agentAddr()
	if err != nil {
		t.Fatal(err)
	}

	req := httpwire.NewRequest("POST", "/channel")
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Cookie", cookieFor(s))
	req.Body = []byte("ts=0")
	ch, resp, err := s.Browser.Client.Upgrade(addr, req, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ch == nil {
		t.Fatalf("upgrade refused: %d %s", resp.StatusCode, resp.Body)
	}
	defer ch.Close()

	readContent := func(what string) *NewContent {
		t.Helper()
		f, err := ch.ReadFrame()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if f.Type != FrameContent {
			t.Fatalf("%s: frame type %d, want FrameContent", what, f.Type)
		}
		content, err := Unmarshal(f.Payload)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return content
	}
	first := readContent("initial push")
	if !first.HasDocument || first.DocTime <= 0 {
		t.Fatalf("initial push: hasDoc=%v docTime=%d", first.HasDocument, first.DocTime)
	}

	// A zero ack reports a failed apply: the agent must resend the full
	// snapshot even though its delivery base had advanced.
	if err := ch.WriteFrame(httpwire.Frame{Type: FrameAck, Payload: []byte("0")}); err != nil {
		t.Fatal(err)
	}
	resent := readContent("resync push")
	if resent.DocTime != first.DocTime {
		t.Fatalf("resync docTime = %d, want %d", resent.DocTime, first.DocTime)
	}

	if err := ch.WriteFrame(httpwire.Frame{Type: FramePing, Payload: []byte("probe")}); err != nil {
		t.Fatal(err)
	}
	f, err := ch.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FramePong || string(f.Payload) != "probe" {
		t.Fatalf("ping answered with type=%d payload=%q", f.Type, f.Payload)
	}
}

// cookieFor returns the participant cookie header a snippet would send.
func cookieFor(s *Snippet) string {
	return s.Browser.Jar.Header(browser.HostOf("http://" + agentAddr + "/"))
}

// pidOf returns the participant id in a snippet's agent cookie.
func pidOf(s *Snippet) string {
	pid, _, _ := strings.Cut(strings.TrimPrefix(cookieFor(s), "rcbpid="), ";")
	return pid
}

// TestChannelShedRefusal: at ShedInterval and above, the upgrade is refused
// with OVERCOMMITTED + retry-after and the snippet quietly opens its
// fallback window instead of erroring or rejoining.
func TestChannelShedRefusal(t *testing.T) {
	var heap atomic.Uint64
	w := newWorld(t, func(a *Agent) {
		a.Shed = ShedWatermarks{HeapHigh: 1000, HeapLow: 500}
		a.ReadHeap = func() uint64 { return heap.Load() }
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "shed.lan")
	s.Delivery = DeliveryDuplex
	// Climb the measured ladder to ShedInterval, then hold it there inside
	// the hysteresis band so serve-path evaluations neither climb nor recede.
	heap.Store(2000)
	w.agent.EvaluateLoad()
	if got := w.agent.EvaluateLoad(); got != ShedInterval {
		t.Fatalf("ladder at %v, want %v", got, ShedInterval)
	}
	heap.Store(700)

	if err := s.DuplexOnce(nil); err != nil {
		t.Fatalf("refused upgrade must degrade silently, got %v", err)
	}
	st := s.Stats()
	if st.DuplexFallbacks != 1 || st.LastCloseReason != CloseOvercommitted {
		t.Fatalf("fallbacks=%d reason=%s, want 1/OVERCOMMITTED", st.DuplexFallbacks, st.LastCloseReason)
	}
	if s.RejoinNeeded() {
		t.Fatal("a load refusal must not force a rejoin")
	}
	if s.duplexEligible() {
		t.Fatal("upgrade attempts not suspended after a refusal")
	}
	if got := w.agent.ChannelFallbacks(); got != 1 {
		t.Fatalf("agent ChannelFallbacks = %d, want 1", got)
	}
	// The long-poll fallback still works under the same identity.
	s.LongPollWait = 50 * time.Millisecond
	if _, err := s.PollOnce(); err != nil {
		t.Fatalf("fallback poll: %v", err)
	}
}

// TestChannelDisabledRefusal: the operator knob refuses upgrades with the
// same retry-carrying answer the shed ladder gives, so clients degrade to
// long-poll without treating it as a session event.
func TestChannelDisabledRefusal(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.DisableChannel = true })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "nochan.lan")
	s.Delivery = DeliveryDuplex

	if err := s.DuplexOnce(nil); err != nil {
		t.Fatalf("refused upgrade must degrade silently, got %v", err)
	}
	st := s.Stats()
	if st.DuplexFallbacks != 1 || st.LastCloseReason != CloseOvercommitted {
		t.Fatalf("fallbacks=%d reason=%s, want 1/OVERCOMMITTED", st.DuplexFallbacks, st.LastCloseReason)
	}
	if w.agent.ChannelsOpen() != 0 {
		t.Fatalf("ChannelsOpen = %d with channels disabled", w.agent.ChannelsOpen())
	}
	s.LongPollWait = 50 * time.Millisecond
	if _, err := s.PollOnce(); err != nil {
		t.Fatalf("fallback poll: %v", err)
	}
}

// TestChannelMeasuredShedClosesChannel: when the measured ladder reaches
// ShedInterval, an attached channel is closed with OVERCOMMITTED — the
// client falls back to polling and suspends upgrades.
func TestChannelMeasuredShedClosesChannel(t *testing.T) {
	w := newWorld(t, func(a *Agent) {
		// attached channels count toward the parked signal, so one attached
		// channel trips the high watermark on the first evaluation.
		a.Shed = ShedWatermarks{ParkedHigh: 1, ParkedLow: 0}
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s, _, done := duplexJoin(t, w, "pressured.lan")
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })

	// Climb the measured ladder to ShedInterval (one step per evaluation).
	for i := 0; i < int(ShedInterval); i++ {
		w.agent.EvaluateLoad()
	}
	// The writer checks the ladder on its next wake.
	w.agent.hub.notifyAll()
	if err := <-done; err != nil {
		t.Fatalf("shed close must degrade silently, got %v", err)
	}
	waitUntil(t, "channel detached", func() bool { return w.agent.ChannelsOpen() == 0 })
	st := s.Stats()
	if st.LastCloseReason != CloseOvercommitted {
		t.Fatalf("close reason = %s, want OVERCOMMITTED", st.LastCloseReason)
	}
	if s.duplexEligible() {
		t.Fatal("upgrade attempts not suspended after a shed close")
	}
}

// TestChannelKickedTerminal: a deliberate removal closes the channel with
// KICKED and DuplexOnce surfaces the terminal CloseError, ending the
// session like the poll path would.
func TestChannelKickedTerminal(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s, _, done := duplexJoin(t, w, "kicked.lan")
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })

	w.agent.DisconnectWith("p1", CloseKicked)
	err := <-done
	if CloseReasonOf(err) != CloseKicked {
		t.Fatalf("DuplexOnce returned %v, want a KICKED CloseError", err)
	}
	if s.RejoinNeeded() {
		t.Fatal("a terminal close must not schedule a rejoin")
	}
	waitUntil(t, "channel detached", func() bool { return w.agent.ChannelsOpen() == 0 })
}

// TestChannelServerCloseFallsBack: severing the server mid-stream (restart)
// ends the channel with a read error; the snippet requeues and opens its
// fallback window.
func TestChannelServerCloseFallsBack(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s, _, done := duplexJoin(t, w, "severed.lan")
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })

	w.server.Close()
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "channel read") {
		t.Fatalf("severed channel returned %v, want a channel read error", err)
	}
	if s.duplexEligible() {
		t.Fatal("upgrade attempts not suspended after a severed channel")
	}
	if st := s.Stats(); st.DuplexFallbacks != 1 {
		t.Fatalf("DuplexFallbacks = %d, want 1", st.DuplexFallbacks)
	}
}

// TestChannelHandoverMoved: a handover completes while a channel is live;
// the MOVED close arrives as a frame over that channel, the snippet follows
// the relocation, and re-upgrades against the new agent.
func TestChannelHandoverMoved(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.Auth = NewAuthenticator(handoverKey) })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := joinWithKey(t, w, "alice.lan", handoverKey)
	alice.Delivery = DeliveryDuplex
	stop := make(chan struct{})
	defer close(stop)
	done := make(chan error, 1)
	go func() { done <- alice.DuplexOnce(stop) }()
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })
	waitUntil(t, "alice synced", func() bool { return alice.DocTime() > 0 })

	rcv := newReceiver(t, w, "host2.lan", handoverKey, nil)
	if err := w.agent.HandoverTo(handoverClient(w), rcv.addr); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if CloseReasonOf(err) != CloseMoved {
		t.Fatalf("DuplexOnce returned %v, want a MOVED CloseError", err)
	}
	if !alice.RejoinNeeded() {
		t.Fatal("MOVED over the channel did not schedule a rejoin")
	}
	waitUntil(t, "old agent channel detached", func() bool { return w.agent.ChannelsOpen() == 0 })

	// Follow the relocation and re-upgrade at the new agent.
	if err := alice.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if got := alice.CurrentAgentURL(); got != "http://"+rcv.addr {
		t.Fatalf("snippet follows %q, want %q", got, "http://"+rcv.addr)
	}
	go func() { done <- alice.DuplexOnce(stop) }()
	waitUntil(t, "channel re-attached at new agent", func() bool { return rcv.agent.ChannelsOpen() == 1 })
	waitUntil(t, "alice resynced at new agent", func() bool { return alice.DocTime() > 0 })
	if st := alice.Stats(); st.Relocates != 1 || st.DuplexUpgrades != 2 {
		t.Fatalf("relocates=%d upgrades=%d, want 1/2", st.Relocates, st.DuplexUpgrades)
	}
}
