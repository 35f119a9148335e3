package core

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// parkDeltaFleet joins n wire-level participants, syncs each to the
// current build and parks one delta-advertising long-poll per participant,
// answered through respond. It returns the acknowledged base docTime.
func parkDeltaFleet(t *testing.T, w *world, n int, respond func(*httpwire.Response)) int64 {
	t.Helper()
	polls := make([]*httpwire.Request, n)
	for i := range polls {
		join := w.agent.ServeWire(httpwire.NewRequest("GET", "/"))
		if join.StatusCode != 200 {
			t.Fatalf("join %d returned %d", i, join.StatusCode)
		}
		pid, _, _ := strings.Cut(strings.TrimPrefix(join.Header.Get("Set-Cookie"), "rcbpid="), ";")
		req := httpwire.NewRequest("POST", "/poll")
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Cookie", "rcbpid="+pid)
		req.Body = []byte("ts=0")
		if resp := w.agent.ServeWire(req); resp.StatusCode != 200 {
			t.Fatalf("initial sync %d returned %d", i, resp.StatusCode)
		}
		polls[i] = req
	}
	base := w.agent.LatestDocTime()
	for _, req := range polls {
		req.Body = []byte("ts=" + strconv.FormatInt(base, 10) + "&delta=1&wait=10000")
		w.agent.ServeWireAsync(req, respond)
	}
	waitParked(t, w.agent, n)
	return base
}

// TestWakeRoundWarmsBeforeAnswering pins the one-round fan-out: one change
// wakes 16 parked delta polls at cost of exactly one content build and one
// diff, and both are done before the first poll is answered — no woken
// poll waits on a single-flight build or diff, and none runs its own.
func TestWakeRoundWarmsBeforeAnswering(t *testing.T) {
	const fleet = 16
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	var mu sync.Mutex
	var builds0, diffs0 int64
	var resps []*httpwire.Response
	var firstBuilds, firstDiffs int64
	done := make(chan struct{})
	base := parkDeltaFleet(t, w, fleet, func(resp *httpwire.Response) {
		mu.Lock()
		defer mu.Unlock()
		if len(resps) == 0 {
			firstBuilds = w.agent.ContentBuilds() - builds0
			firstDiffs = w.agent.DiffBuilds() - diffs0
		}
		resps = append(resps, resp)
		if len(resps) == fleet {
			close(done)
		}
	})
	mu.Lock()
	builds0, diffs0 = w.agent.ContentBuilds(), w.agent.DiffBuilds()
	mu.Unlock()

	if err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-round", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the woken fleet was not answered")
	}
	mu.Lock()
	defer mu.Unlock()
	if firstBuilds != 1 || firstDiffs != 1 {
		t.Fatalf("at the first answer: %d builds and %d diffs, want both 1 (warm before answering)", firstBuilds, firstDiffs)
	}
	if b, d := w.agent.ContentBuilds()-builds0, w.agent.DiffBuilds()-diffs0; b != 1 || d != 1 {
		t.Fatalf("one change woke %d polls at %d builds and %d diffs, want 1 and 1", fleet, b, d)
	}
	for i, resp := range resps {
		if resp.StatusCode != 200 || !MessageIsDelta(resp.Body) {
			t.Fatalf("woken poll %d: status %d, delta %v", i, resp.StatusCode, MessageIsDelta(resp.Body))
		}
		if b, ok := deltaBaseOf(resp.Body); !ok || b != base {
			t.Fatalf("woken poll %d patched base %d, want %d", i, b, base)
		}
	}
}

// deltaBaseOf reads a deltaContent message's baseDocTime.
func deltaBaseOf(body []byte) (int64, bool) {
	d, err := UnmarshalDelta(body)
	if err != nil {
		return 0, false
	}
	return d.BaseDocTime, true
}

// TestWakeRoundGoroutinesBounded checks that a wake round answers its
// waiters from one goroutine, not one per waiter: the goroutines alive
// while the round hands out answers stay a small constant above the parked
// baseline, for a small fleet and an eight-times larger one alike.
func TestWakeRoundGoroutinesBounded(t *testing.T) {
	for _, fleet := range []int{16, 128} {
		w := newWorld(t, nil)
		w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
		var mu sync.Mutex
		peak, answered := 0, 0
		done := make(chan struct{})
		parkDeltaFleet(t, w, fleet, func(*httpwire.Response) {
			n := runtime.NumGoroutine()
			mu.Lock()
			defer mu.Unlock()
			peak = max(peak, n)
			if answered++; answered == fleet {
				close(done)
			}
		})
		base := runtime.NumGoroutine()
		if err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-round", strconv.Itoa(fleet))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("fleet %d: the woken polls were not answered", fleet)
		}
		mu.Lock()
		grew := peak - base
		mu.Unlock()
		if grew > 4 {
			t.Fatalf("fleet %d: %d goroutines above the parked baseline during the round, want at most 4", fleet, grew)
		}
	}
}

// TestSpuriousWakeDoesNotStallLongPoll is the regression test for the
// long-poll stall. Browser.ApplyMutation bumps the version before its change
// hooks run, so a poll can build and park at the new version before the
// agent's notification arrives; that notification then wakes it with
// nothing new, and the empty answer comes back at once. The snippet must
// re-park immediately, not read the fast empty answer as a park refusal
// and sleep its PollInterval — which in a busy session lets its base fall
// off the delta ring and costs a full snapshot.
func TestSpuriousWakeDoesNotStallLongPoll(t *testing.T) {
	corpus, err := sites.NewCorpus()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(corpus.Close)
	host := browser.New("host.lan", corpus.Network.Dialer("host.lan"))
	t.Cleanup(host.Close)
	// Registered before NewAgent, so it runs ahead of the agent's hook and
	// can hold the change notification back.
	var gateMu sync.Mutex
	var gate chan struct{}
	entered := make(chan struct{}, 1)
	host.OnChange(func() {
		gateMu.Lock()
		g := gate
		gateMu.Unlock()
		if g != nil {
			entered <- struct{}{}
			<-g
		}
	})
	agent := NewAgent(host, agentAddr)
	l, err := corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	t.Cleanup(server.Close)
	t.Cleanup(agent.Close)
	w := &world{corpus: corpus, host: host, agent: agent, server: server}
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	s := longPollJoin(t, w, "stall.lan", 10*time.Second)
	s.PollInterval = 10 * time.Second // a refusal pause would be unmistakable
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		s.Run(stop, nil)
		close(stopped)
	}()
	t.Cleanup(func() {
		agent.Close() // completes the parked poll so Run can stop
		close(stop)
		<-stopped
	})
	waitParked(t, agent, 1)

	// Change 1 with its notification held back.
	release := make(chan struct{})
	gateMu.Lock()
	gate = release
	gateMu.Unlock()
	released := false
	t.Cleanup(func() {
		if !released {
			close(release)
		}
	})
	mutated := make(chan error, 1)
	go func() {
		mutated <- host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-stall", "1")
			return nil
		})
	}()
	<-entered
	gateMu.Lock()
	gate = nil
	gateMu.Unlock()

	// A mirror action wakes the parked poll inside the window: it builds the
	// new version, delivers it, and the snippet parks again at that version.
	agent.Broadcast(Action{Kind: ActionMouseMove, X: 1, Y: 1})
	deadline := time.Now().Add(5 * time.Second)
	for s.DocTime() != agent.LatestDocTime() || agent.ParkedPolls() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("snippet did not park at the new version (docTime %d, latest %d, parked %d)",
				s.DocTime(), agent.LatestDocTime(), agent.ParkedPolls())
		}
		time.Sleep(200 * time.Microsecond)
	}
	empty0 := s.Stats().EmptyPolls

	// Release the notification: it wakes the poll with nothing new.
	released = true
	close(release)
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.Stats().EmptyPolls == empty0 {
		if time.Now().After(deadline) {
			t.Fatal("the held notification never reached the parked poll")
		}
		time.Sleep(200 * time.Microsecond)
	}
	// The snippet parks again at once instead of pausing PollInterval.
	waitParked(t, agent, 1)
	if s.lastParkDenied() {
		t.Fatal("an unmarked empty wake was read as a park refusal")
	}

	// The next change reaches it promptly, as a delta.
	st := s.Stats()
	start := time.Now()
	if err := host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-stall", "2")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for s.Stats().ContentPolls == st.ContentPolls {
		if time.Now().After(deadline) {
			t.Fatal("the next change was not delivered")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if took := time.Since(start); took > s.PollInterval/2 {
		t.Fatalf("the next change took %v: the snippet paused instead of re-parking", took)
	}
	if got := s.Stats(); got.DeltaPolls != st.DeltaPolls+1 {
		t.Fatalf("the next change arrived as a snapshot, want a delta (delta polls %d → %d)", st.DeltaPolls, got.DeltaPolls)
	}
}
