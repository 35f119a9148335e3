package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/sites"
)

// newParticipantBrowser builds a participant browser without joining — for
// tests that expect the join itself to be refused.
func newParticipantBrowser(t *testing.T, w *world, loc string) *browser.Browser {
	t.Helper()
	pb := browser.New(loc, w.corpus.Network.Dialer(loc))
	t.Cleanup(pb.Close)
	return pb
}

// TestShedLadderClimbsAndRecovers walks the ladder deterministically through
// an injected heap probe: pressure climbs one step per evaluation up to
// refuse-joins, holds there, and recedes one step per evaluation once the
// signal is below the low watermark — never skipping a rung in either
// direction (one-step hysteresis).
func TestShedLadderClimbsAndRecovers(t *testing.T) {
	var heap atomic.Uint64
	w := newWorld(t, func(a *Agent) {
		a.Shed = ShedWatermarks{HeapHigh: 1000, HeapLow: 500}
		a.ReadHeap = func() uint64 { return heap.Load() }
	})

	heap.Store(2000)
	want := []ShedLevel{ShedNoDelta, ShedInterval, ShedRefuseJoins, ShedRefuseJoins}
	for i, lvl := range want {
		if got := w.agent.EvaluateLoad(); got != lvl {
			t.Fatalf("evaluation #%d under pressure = %v, want %v", i, got, lvl)
		}
	}
	// Between the watermarks: neither climb nor recover (hysteresis band).
	heap.Store(700)
	if got := w.agent.EvaluateLoad(); got != ShedRefuseJoins {
		t.Fatalf("inside hysteresis band the ladder moved to %v", got)
	}
	// Below the low watermark: one step down per evaluation.
	heap.Store(100)
	down := []ShedLevel{ShedInterval, ShedNoDelta, ShedNone, ShedNone}
	for i, lvl := range down {
		if got := w.agent.EvaluateLoad(); got != lvl {
			t.Fatalf("recovery evaluation #%d = %v, want %v", i, got, lvl)
		}
	}
}

// TestShedLadderClimbsOnOutboxDepth drives the ladder with the outbox
// signal alone: mirror actions queued for participants that have not polled
// climb it, and once their polls drain the queues it recovers.
func TestShedLadderClimbsOnOutboxDepth(t *testing.T) {
	a := offlineAgent(t)
	a.Shed = ShedWatermarks{OutboxHigh: 8, OutboxLow: 2}
	alice, bob := wireJoin(t, a), wireJoin(t, a)
	for i := 0; i < 5; i++ {
		a.HostAction(Action{Kind: ActionMouseMove, X: i})
	}
	if got := a.OutboxDepth(); got != 10 {
		t.Fatalf("OutboxDepth after 5 host moves to 2 participants = %d, want 10", got)
	}
	if lvl := a.EvaluateLoad(); lvl == ShedNone {
		t.Fatal("outbox depth above OutboxHigh did not climb the ladder")
	}
	for _, pid := range []string{alice, bob} {
		if resp := a.ServeWire(pollRequest(pid, "ts=0")); resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "userActions") {
			t.Fatalf("poll for %s: %d without its mirror actions", pid, resp.StatusCode)
		}
	}
	if got := a.OutboxDepth(); got != 0 {
		t.Fatalf("OutboxDepth after both polls drained = %d, want 0", got)
	}
	for i := 0; i < 3 && a.ShedLevel() > ShedNone; i++ {
		a.EvaluateLoad()
	}
	if lvl := a.ShedLevel(); lvl != ShedNone {
		t.Fatalf("ladder stuck at %v with the queues drained", lvl)
	}
}

// TestShedRefuseJoinsAndRecover checks the ladder's top step end to end: a
// join against a fully shedding agent is refused with SESSION_FULL plus a
// retry hint, and admits again once pressure clears.
func TestShedRefuseJoinsAndRecover(t *testing.T) {
	var heap atomic.Uint64
	w := newWorld(t, func(a *Agent) {
		a.Shed = ShedWatermarks{HeapHigh: 1000}
		a.ReadHeap = func() uint64 { return heap.Load() }
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	heap.Store(5000)
	for i := 0; i < 3; i++ {
		w.agent.EvaluateLoad()
	}
	pb := newParticipantBrowser(t, w, "refused.lan")
	s := NewSnippet(pb, "http://"+agentAddr, "")
	err := s.Join()
	if err == nil {
		t.Fatal("join admitted at refuse-joins")
	}
	if got := CloseReasonOf(err); got != CloseSessionFull {
		t.Fatalf("join refusal reason = %v (%v), want SESSION_FULL", got, err)
	}
	if got := s.Stats().LastCloseReason; got != CloseSessionFull {
		t.Fatalf("snippet recorded %v, want SESSION_FULL", got)
	}
	if got := w.agent.JoinRefusals(); got != 1 {
		t.Fatalf("JoinRefusals = %d, want 1", got)
	}
	// SessionFull is retryable: the same snippet rejoins once the ladder
	// recovers.
	heap.Store(0)
	for i := 0; i < 3; i++ {
		w.agent.EvaluateLoad()
	}
	if w.agent.ShedLevel() != ShedNone {
		t.Fatalf("ladder stuck at %v", w.agent.ShedLevel())
	}
	if err := s.Rejoin(); err != nil {
		t.Fatalf("rejoin after recovery: %v", err)
	}
	if updated, err := s.PollOnce(); err != nil || !updated {
		t.Fatalf("post-recovery poll: updated=%v err=%v", updated, err)
	}
}

// TestShedIntervalForcesImmediateAnswer checks the ladder's middle step: at
// interval level a would-be long-poll answers instantly with the
// server-assigned retry interval instead of parking, and the snippet honors
// it as its next delay.
func TestShedIntervalForcesImmediateAnswer(t *testing.T) {
	var heap atomic.Uint64
	w := newWorld(t, func(a *Agent) {
		a.Shed = ShedWatermarks{HeapHigh: 1000}
		a.ReadHeap = func() uint64 { return heap.Load() }
		a.ShedRetryAfter = 1500 * time.Millisecond
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := longPollJoin(t, w, "shed.lan", 10*time.Second)

	heap.Store(5000)
	w.agent.EvaluateLoad()
	w.agent.EvaluateLoad() // none → no-delta → interval

	start := time.Now()
	updated, err := s.PollOnce()
	took := time.Since(start)
	if err != nil || updated {
		t.Fatalf("shed poll: updated=%v err=%v", updated, err)
	}
	if took > time.Second {
		t.Fatalf("shed long-poll parked anyway (%v)", took)
	}
	if got := w.agent.ParkRefusals(); got != 1 {
		t.Fatalf("ParkRefusals = %d, want 1", got)
	}
	s.mu.Lock()
	retryAfter := s.retryAfter
	s.mu.Unlock()
	if retryAfter != 1500*time.Millisecond {
		t.Fatalf("snippet retryAfter = %v, want the server's 1.5s", retryAfter)
	}
	if got := s.runDelay(nil, 50*time.Millisecond); got != 1500*time.Millisecond {
		t.Fatalf("next delay = %v, want the server-assigned interval", got)
	}
}

// TestShedNoDeltaServesFullSnapshots checks the ladder's first step: with
// deltas shed, a delta-eligible poll gets the full snapshot and the
// participant still converges.
func TestShedNoDeltaServesFullSnapshots(t *testing.T) {
	var heap atomic.Uint64
	w := newWorld(t, func(a *Agent) {
		a.Shed = ShedWatermarks{HeapHigh: 1000}
		a.ReadHeap = func() uint64 { return heap.Load() }
	})
	w.hostNavigate(t, "http://"+sites.MapsHost+"/")
	s := w.join(t, "nodelta.lan")
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}

	heap.Store(5000)
	w.agent.EvaluateLoad() // none → no-delta
	mutateBody(t, w)
	updated, err := s.PollOnce()
	if err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	if got := w.agent.DeltasServed(); got != 0 {
		t.Fatalf("DeltasServed = %d under no-delta shedding", got)
	}
	if got := s.Stats().DeltaPolls; got != 0 {
		t.Fatalf("snippet counted %d delta polls", got)
	}
}

// TestShedReleasesDeltaBase is the regression test for the ladder's memory
// promise: the ShedNoDelta rung exists to free the retained delta bases, so
// climbing onto it must actually drop the ring, further builds under shed
// must not repopulate it, and descent must resume rotation.
func TestShedReleasesDeltaBase(t *testing.T) {
	var heap atomic.Uint64
	w := newWorld(t, func(a *Agent) {
		a.Shed = ShedWatermarks{HeapHigh: 1000, HeapLow: 500}
		a.ReadHeap = func() uint64 { return heap.Load() }
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "shedring.lan")
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	mutateBody(t, w)
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := w.agent.pipeline.basesRetained(); got == 0 {
		t.Fatal("test setup: no delta base retained before shedding")
	}

	// Climb to ShedNoDelta: the ring must be released immediately, not on
	// some future rotation.
	heap.Store(5000)
	if lvl := w.agent.EvaluateLoad(); lvl != ShedNoDelta {
		t.Fatalf("ladder at %v, want no-delta", lvl)
	}
	if got := w.agent.pipeline.basesRetained(); got != 0 {
		t.Fatalf("DeltaBasesRetained = %d after climbing to no-delta, want 0", got)
	}

	// Builds while the rung holds must not quietly re-hoard bases.
	mutateBody(t, w)
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := w.agent.pipeline.basesRetained(); got != 0 {
		t.Fatalf("DeltaBasesRetained = %d after a build under no-delta shedding, want 0", got)
	}

	// Descent: rotation resumes and the next replaced build is retained.
	heap.Store(100)
	if lvl := w.agent.EvaluateLoad(); lvl != ShedNone {
		t.Fatalf("ladder at %v after recovery, want none", lvl)
	}
	mutateBody(t, w)
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := w.agent.pipeline.basesRetained(); got != 1 {
		t.Fatalf("DeltaBasesRetained = %d after recovery build, want 1", got)
	}
}

// TestFreshActionsDoesNotMutateCaller is the aliasing regression test: the
// replay filter must leave the caller's slice exactly as decoded even when
// it drops duplicates, so a retransmit/requeue path that retains the slice
// never sees it silently compacted.
func TestFreshActionsDoesNotMutateCaller(t *testing.T) {
	w := newWorld(t, nil)
	in := []Action{
		{Kind: ActionMouseMove, X: 1, CID: "c", CSeq: 1},
		{Kind: ActionMouseMove, X: 2, CID: "c", CSeq: 2},
		{Kind: ActionMouseMove, X: 3, CID: "c", CSeq: 3},
	}
	if got := len(w.agent.sessions.fresh(in)); got != 3 {
		t.Fatalf("first pass survivors = %d, want 3", got)
	}
	// Replay 1 and 3 around a fresh 4: the duplicates are dropped, and the
	// caller's slice must still hold its own elements afterwards.
	replay := []Action{
		{Kind: ActionMouseMove, X: 1, CID: "c", CSeq: 1},
		{Kind: ActionMouseMove, X: 4, CID: "c", CSeq: 4},
		{Kind: ActionMouseMove, X: 3, CID: "c", CSeq: 3},
	}
	want := append([]Action(nil), replay...)
	out := w.agent.sessions.fresh(replay)
	if len(out) != 1 || out[0].CSeq != 4 {
		t.Fatalf("survivors = %+v, want just CSeq 4", out)
	}
	for i := range want {
		if replay[i].CSeq != want[i].CSeq || replay[i].X != want[i].X {
			t.Fatalf("caller's slice mutated at %d: %+v, want %+v", i, replay[i], want[i])
		}
	}
	// All-fresh input is returned as-is without a copy — the fast path.
	fresh := []Action{{Kind: ActionMouseMove, X: 5, CID: "c", CSeq: 5}}
	if out := w.agent.sessions.fresh(fresh); &out[0] != &fresh[0] {
		t.Fatal("all-fresh input was copied")
	}
}

// TestMaxParticipantsCap checks plain admission control: the cap refuses the
// N+1th join with SESSION_FULL and admits again after a leave.
func TestMaxParticipantsCap(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.MaxParticipants = 2 })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	w.join(t, "one.lan")
	w.join(t, "two.lan")

	pb := newParticipantBrowser(t, w, "three.lan")
	s := NewSnippet(pb, "http://"+agentAddr, "")
	err := s.Join()
	if got := CloseReasonOf(err); got != CloseSessionFull {
		t.Fatalf("over-cap join: reason %v (err %v), want SESSION_FULL", got, err)
	}
	if got := w.agent.JoinRefusals(); got != 1 {
		t.Fatalf("JoinRefusals = %d, want 1", got)
	}
	// A slot frees up; the refused participant gets in.
	w.agent.Disconnect(w.agent.Participants()[0].ID)
	if err := s.Rejoin(); err != nil {
		t.Fatalf("join after slot freed: %v", err)
	}
}

// TestMaxParkedPollsCap checks the parked-poll bound: with the cap reached,
// a further long-poll answers immediately (no park) with the retry hint,
// while the parked one is untouched.
func TestMaxParkedPollsCap(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.MaxParkedPolls = 1 })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	first := longPollJoin(t, w, "parked.lan", 10*time.Second)
	second := longPollJoin(t, w, "capped.lan", 10*time.Second)

	done := make(chan error, 1)
	go func() {
		_, err := first.PollOnce()
		done <- err
	}()
	waitParked(t, w.agent, 1)

	start := time.Now()
	updated, err := second.PollOnce()
	took := time.Since(start)
	if err != nil || updated {
		t.Fatalf("capped poll: updated=%v err=%v", updated, err)
	}
	if took > time.Second {
		t.Fatalf("capped long-poll parked anyway (%v)", took)
	}
	if got := w.agent.ParkRefusals(); got != 1 {
		t.Fatalf("ParkRefusals = %d, want 1", got)
	}
	if !second.lastParkDenied() {
		t.Fatal("capped snippet did not flag the denial for Run pacing")
	}
	// The parked poll still wakes normally on a document change.
	mutateTitle(t, w)
	if err := <-done; err != nil {
		t.Fatalf("parked poll errored after cap refusal: %v", err)
	}
}

// TestDuplicateActionsFiltered checks the (CID, CSeq) replay filter: the
// same stamped action arriving twice — the replay after a lost answer the
// at-least-once upstream produces — reaches the policy exactly once.
func TestDuplicateActionsFiltered(t *testing.T) {
	var decisions atomic.Int64
	w := newWorld(t, func(a *Agent) {
		a.Policy = PolicyFunc(func(pid string, act Action) Decision {
			decisions.Add(1)
			return Apply
		})
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	// A short hang: the replayed action poll below parks until it expires.
	s := longPollJoin(t, w, "dup.lan", 100*time.Millisecond)

	act := Action{Kind: ActionMouseMove, X: 9, Y: 9}
	s.mu.Lock()
	s.outboxLocked().stamp(&act)
	s.mu.Unlock()
	if err := postActions(s, act); err != nil {
		t.Fatal(err)
	}
	// The ack was "lost": the snippet replays the same stamped action, as a
	// poll of its own.
	s.QueueAction(act)
	if _, err := s.readPolls(); err != nil {
		t.Fatal(err)
	}
	if got := decisions.Load(); got != 1 {
		t.Fatalf("policy saw the action %d times, want exactly once", got)
	}
	if got := w.agent.DuplicateActions(); got != 1 {
		t.Fatalf("DuplicateActions = %d, want 1", got)
	}
	// Unstamped actions (foreign clients) bypass the filter entirely.
	bare := Action{Kind: ActionMouseMove, X: 1, Y: 2}
	if err := postActions(s, bare); err != nil {
		t.Fatal(err)
	}
	if err := postActions(s, bare); err != nil {
		t.Fatal(err)
	}
	if got := decisions.Load(); got != 3 {
		t.Fatalf("unstamped actions filtered (decisions=%d, want 3)", got)
	}
}

// TestDisconnectReasonsOnTheWire pins the close-reason protocol: Disconnect
// answers LEAVE (403, non-retryable), Kick answers KICKED (403,
// non-retryable), and a pid the agent never knew answers UNKNOWN (403,
// retryable).
func TestDisconnectReasonsOnTheWire(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	leaver := w.join(t, "leaver.lan")
	w.agent.Disconnect(w.agent.Participants()[0].ID)
	_, err := leaver.PollOnce()
	if got := CloseReasonOf(err); got != CloseLeave {
		t.Fatalf("after Disconnect: reason %v (%v), want LEAVE", got, err)
	}
	if leaver.needsRejoin() {
		t.Fatal("LEAVE is final; snippet must not schedule a rejoin")
	}

	kicked := w.join(t, "kicked.lan")
	w.agent.DisconnectWith(w.agent.Participants()[0].ID, CloseKicked)
	_, err = kicked.PollOnce()
	if got := CloseReasonOf(err); got != CloseKicked {
		t.Fatalf("after Kick: reason %v (%v), want KICKED", got, err)
	}

	// A participant the agent has no record of (e.g. the agent restarted).
	stranger := w.join(t, "stranger.lan")
	stranger.Browser.Jar.SetFromHeader(browser.HostOf("http://"+agentAddr+"/"), "rcbpid=p999; Path=/")
	_, err = stranger.PollOnce()
	if got := CloseReasonOf(err); got != CloseUnknown {
		t.Fatalf("unknown pid: reason %v (%v), want UNKNOWN", got, err)
	}
	if !stranger.needsRejoin() {
		t.Fatal("UNKNOWN is retryable; snippet must schedule a rejoin")
	}
}

// TestParseShedWatermarks covers the rcb-host flag syntax.
func TestParseShedWatermarks(t *testing.T) {
	w, err := ParseShedWatermarks("parked=192/128,outbox=4096,heap=256M")
	if err != nil {
		t.Fatal(err)
	}
	if w.ParkedHigh != 192 || w.ParkedLow != 128 {
		t.Fatalf("parked = %d/%d", w.ParkedHigh, w.ParkedLow)
	}
	if w.OutboxHigh != 4096 || w.OutboxLow != 0 {
		t.Fatalf("outbox = %d/%d", w.OutboxHigh, w.OutboxLow)
	}
	if w.HeapHigh != 256<<20 {
		t.Fatalf("heap = %d", w.HeapHigh)
	}
	if !w.enabled() {
		t.Fatal("parsed watermarks not enabled")
	}
	if empty, err := ParseShedWatermarks(""); err != nil || empty.enabled() {
		t.Fatalf("empty spec: %+v err=%v", empty, err)
	}
	for _, bad := range []string{"parked", "parked=", "bogus=1", "heap=1X2", "parked=5/x"} {
		if _, err := ParseShedWatermarks(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	// Low watermark defaults to high/2.
	if got := lowMark(0, 100); got != 50 {
		t.Fatalf("lowMark(0, 100) = %d", got)
	}
	if got := lowMark(30, 100); got != 30 {
		t.Fatalf("lowMark(30, 100) = %d", got)
	}
}

// TestCloseReasonTable pins the enum's wire behavior: spelling round-trips,
// retryability, and status codes.
func TestCloseReasonTable(t *testing.T) {
	all := []CloseReason{
		CloseLeave, CloseKicked, CloseSessionFull, CloseOvercommitted,
		CloseStaleReader, CloseAgentClosing, CloseUnknown,
	}
	for _, r := range all {
		if got := ParseCloseReason(r.String()); got != r {
			t.Errorf("round trip %v → %q → %v", r, r.String(), got)
		}
	}
	if got := ParseCloseReason(""); got != CloseNone {
		t.Errorf(`ParseCloseReason("") = %v`, got)
	}
	if got := ParseCloseReason("FUTURE_REASON"); got != CloseUnknown {
		t.Errorf("unrecognized spelling = %v, want UNKNOWN", got)
	}
	for _, r := range []CloseReason{CloseLeave, CloseKicked} {
		if r.Retryable() {
			t.Errorf("%v must not be retryable", r)
		}
		if r.StatusCode() != 403 {
			t.Errorf("%v status = %d, want 403", r, r.StatusCode())
		}
	}
	for _, r := range []CloseReason{CloseSessionFull, CloseOvercommitted, CloseAgentClosing} {
		if !r.Retryable() {
			t.Errorf("%v must be retryable", r)
		}
		if r.StatusCode() != 503 {
			t.Errorf("%v status = %d, want 503", r, r.StatusCode())
		}
	}
	if !CloseStaleReader.Retryable() || CloseStaleReader.StatusCode() != 403 {
		t.Error("STALE_READER must be a retryable 403")
	}
	var errNo error = &CloseError{Reason: CloseKicked, Status: 403}
	if got := CloseReasonOf(errNo); got != CloseKicked {
		t.Errorf("CloseReasonOf = %v", got)
	}
	if got := CloseReasonOf(errors.New("plain")); got != CloseNone {
		t.Errorf("CloseReasonOf(plain) = %v", got)
	}
}

// TestStaleKicksCountStaleReaderRemovals: a participant removed with
// CloseStaleReader counts once in StaleKicks; repeating the disconnect for
// the same, already removed, participant and a Kick of another leave the
// count alone.
func TestStaleKicksCountStaleReaderRemovals(t *testing.T) {
	a := offlineAgent(t)
	stale, kicked := wireJoin(t, a), wireJoin(t, a)
	for i := 0; i < 2; i++ {
		a.DisconnectWith(stale, CloseStaleReader)
		if got := a.StaleKicks(); got != 1 {
			t.Fatalf("after stale-reader disconnect #%d: StaleKicks = %d, want 1", i+1, got)
		}
	}
	a.DisconnectWith(kicked, CloseKicked)
	if got := a.StaleKicks(); got != 1 {
		t.Fatalf("after a Kick: StaleKicks = %d, want 1", got)
	}
}

// mutateTitle bumps the host document version with a trivial DOM change.
func mutateTitle(t *testing.T, w *world) {
	t.Helper()
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mutationSeq distinguishes successive mutateBody calls so every call
// really changes the serialized document.
var mutationSeq atomic.Int64

// mutateBody performs one dynamic same-URL DOM change: a small append the
// delta path would normally ship as a patch.
func mutateBody(t *testing.T, w *world) {
	t.Helper()
	n := mutationSeq.Add(1)
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		el := dom.NewElement("div")
		el.AppendChild(dom.NewText("tick " + time.Duration(n).String()))
		doc.Body().AppendChild(el)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
