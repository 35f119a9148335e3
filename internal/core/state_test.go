package core

// Session state codec tests: the export → import → export round-trip
// property the durability layer rests on, checkpoint restore behavior, and
// the bounded (CID, CSeq) replay filter under participant churn.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rcb/internal/browser"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// confirmInputsPolicy queues forminput actions for host confirmation so the
// moderation queue has content to serialize.
type confirmInputsPolicy struct{}

func (confirmInputsPolicy) Decide(_ string, act Action) Decision {
	if act.Kind == ActionFormInput {
		return Confirm
	}
	return Apply
}

// populateSession drives a world into a state exercising every section of
// the codec: two participants at different ack points, a pending mirrored
// action in an outbox, replay stamps, a queued confirmation, a departed
// participant with a close reason, and (cache mode) an object mapping.
func populateSession(t *testing.T, w *world) (alice, bob *Snippet) {
	t.Helper()
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	alice = w.join(t, "alice.lan")
	bob = w.join(t, "bob.lan")
	for _, s := range []*Snippet{alice, bob} {
		if _, err := s.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}

	// A mirrored pointer action: stamped by alice, applied by the policy,
	// delivered to alice (her next poll) but still parked in bob's outbox.
	alice.QueueAction(Action{Kind: ActionMouseMove, X: 41, Y: 2})
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	// A queued confirmation, stamped with bob's CID.
	bob.QueueAction(Action{Kind: ActionFormInput, Target: "t1", Value: "draft"})
	if _, err := bob.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if n := len(w.agent.PendingConfirmations()); n != 1 {
		t.Fatalf("pending confirmations = %d, want 1", n)
	}

	// A departed participant whose close reason the session must remember.
	// Joins are sequential, so the third join is p3.
	carol := w.join(t, "carol.lan")
	if _, err := carol.PollOnce(); err != nil {
		t.Fatal(err)
	}
	w.agent.DisconnectWith("p3", CloseKicked)
	return alice, bob
}

// agentDocTime reads the agent's docTime clock.
func agentDocTime(a *Agent) int64 {
	return a.pipeline.lastDocTime.Load()
}

// TestStateRoundTripByteIdentical pins the determinism property: exporting
// a populated session, importing it into a fresh agent at the same address,
// and exporting again yields byte-identical snapshots.
func TestStateRoundTripByteIdentical(t *testing.T) {
	w := newWorld(t, func(a *Agent) {
		a.Policy = confirmInputsPolicy{}
		a.DefaultCacheMode = true
		a.Auth = NewAuthenticator("roundtrip-key")
	})
	// Joins ride the authenticated paths so cookies and HMACs are real.
	joinAuthed := func(loc string) *Snippet {
		pb := browser.New(loc, w.corpus.Network.Dialer(loc))
		t.Cleanup(pb.Close)
		s := NewSnippet(pb, "http://"+agentAddr, "roundtrip-key")
		if err := s.Join(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := joinAuthed("alice.lan")
	bob := joinAuthed("bob.lan")
	for _, s := range []*Snippet{alice, bob} {
		if _, err := s.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	alice.QueueAction(Action{Kind: ActionMouseMove, X: 41, Y: 2})
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	bob.QueueAction(Action{Kind: ActionFormInput, Target: "t1", Value: "draft"})
	if _, err := bob.PollOnce(); err != nil {
		t.Fatal(err)
	}
	joinAuthed("carol.lan") // p3: joins are sequential
	w.agent.DisconnectWith("p3", CloseKicked)

	first, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	rb := browser.New("restore.lan", w.corpus.Network.Dialer("restore.lan"))
	t.Cleanup(rb.Close)
	restored, err := RestoreAgent(rb, agentAddr, first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("export → import → export not byte-identical:\n first: %s\nsecond: %s", first, second)
	}
	if restored.Auth == nil {
		t.Fatal("restored agent did not adopt the session key")
	}
	if n := len(restored.PendingConfirmations()); n != 1 {
		t.Fatalf("restored pending confirmations = %d, want 1", n)
	}
}

// TestRestoredAgentServesSamePreparedBytes kills the server, restores the
// session into a fresh agent and browser at the same address, and checks a
// participant's next poll is answered from the imported prepared content —
// same docTime, zero rebuilds — and converges byte-identically.
func TestRestoredAgentServesSamePreparedBytes(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.Policy = confirmInputsPolicy{} })
	alice, bob := populateSession(t, w)

	// Advance the document and let bob consume it so the delta/prepared
	// cache describes the current version at export time.
	mutateBody(t, w)
	if _, err := bob.PollOnce(); err != nil {
		t.Fatal(err)
	}

	state, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	exportedDocTime := agentDocTime(w.agent)

	// Kill: the listener goes away, exactly as in a process death.
	w.server.Close()
	w.agent.Close()

	rb := browser.New("restorehost.lan", w.corpus.Network.Dialer("restorehost.lan"))
	t.Cleanup(rb.Close)
	restored, err := RestoreAgent(rb, agentAddr, state)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: restored}
	srv.Start(l)
	t.Cleanup(srv.Close)

	if got := agentDocTime(restored); got != exportedDocTime {
		t.Fatalf("restored docTime = %d, want %d", got, exportedDocTime)
	}

	// Alice last acknowledged the pre-mutation version; the restored agent
	// must serve her the update from the imported cache without a rebuild.
	updated, err := alice.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("restored agent delivered no content to a lagging participant")
	}
	if builds := restored.ContentBuilds(); builds != 0 {
		t.Fatalf("restored agent rebuilt content %d times; imported prepared bytes should have served the poll", builds)
	}
	if got, want := alice.DocTime(), exportedDocTime; got != want {
		t.Fatalf("alice docTime = %d, want %d", got, want)
	}
	if a, b := docHTML(t, alice.Browser), docHTML(t, bob.Browser); a != b {
		t.Fatalf("replicas diverged across restore:\nalice: %s\n  bob: %s", a, b)
	}
}

// TestRestoreRejectsWrongSchema pins the versioning contract: a snapshot
// from a different schema is refused, not guessed at.
func TestRestoreRejectsWrongSchema(t *testing.T) {
	w := newWorld(t, nil)
	state, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(state,
		[]byte(fmt.Sprintf(`"schema":%d`, StateSchemaVersion)),
		[]byte(`"schema":999`), 1)
	rb := browser.New("schema.lan", w.corpus.Network.Dialer("schema.lan"))
	t.Cleanup(rb.Close)
	if _, err := RestoreAgent(rb, agentAddr, bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema import error = %v, want schema refusal", err)
	}
}

// TestRestoreRefusesLiveSession: importing over an agent that already has
// participants would corrupt a running session; the importer must refuse.
func TestRestoreRefusesLiveSession(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	w.join(t, "alice.lan")
	state, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.agent.ImportState(state); err == nil {
		t.Fatal("import over a live session succeeded")
	}
}

// TestStaleCheckpointForcesResync restores from a checkpoint older than
// what a participant has acknowledged. The participant's ts is then in the
// restored agent's future; the agent must treat it as unknown and resync in
// full rather than reply "unchanged" forever.
func TestStaleCheckpointForcesResync(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	state, err := w.agent.ExportState() // checkpoint taken now...
	if err != nil {
		t.Fatal(err)
	}
	mutateBody(t, w) // ...then the session moves on
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	aheadDocTime := alice.DocTime()

	w.server.Close()
	w.agent.Close()
	rb := browser.New("stale.lan", w.corpus.Network.Dialer("stale.lan"))
	t.Cleanup(rb.Close)
	restored, err := RestoreAgent(rb, agentAddr, state)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	if got := agentDocTime(restored); got >= aheadDocTime {
		t.Fatalf("test setup: restored docTime %d not behind participant's %d", got, aheadDocTime)
	}
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: restored}
	srv.Start(l)
	t.Cleanup(srv.Close)

	updated, err := alice.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("poll with a future ts returned no content; participant would be stuck ahead of the restored session")
	}
	// The full resync snapshot lands the participant on the restored
	// (older) document — byte-identical to a fresh reference join.
	ref := w.join(t, "staleref.lan")
	if _, err := ref.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := docHTML(t, alice.Browser), docHTML(t, ref.Browser); got != want {
		t.Fatalf("future-ts participant diverged after restore:\n got: %s\nwant: %s", got, want)
	}
}

// TestDedupTableBoundedUnderChurn simulates a month of participant churn
// against the replay filter, one round per hour: transient clients come and
// go every round while one long-lived client keeps acting. The table must
// stay bounded, and the active client's stamps must survive the whole month
// — its duplicates still filtered at the end.
func TestDedupTableBoundedUnderChurn(t *testing.T) {
	w := newWorld(t, nil)
	a := w.agent

	sticky := Action{Kind: ActionMouseMove, CID: "sticky", CSeq: 1}
	if got := len(a.sessions.fresh([]Action{sticky})); got != 1 {
		t.Fatalf("first sticky action filtered: %d survivors", got)
	}

	cseq := int64(1)
	for hour := 0; hour < 24*30; hour++ {
		// A burst of transient clients, never to be seen again.
		var burst []Action
		for i := 0; i < 3; i++ {
			cseq++
			burst = append(burst, Action{Kind: ActionMouseMove, CID: fmt.Sprintf("churn-h%d-%d", hour, i), CSeq: cseq})
		}
		if got := len(a.sessions.fresh(burst)); got != 3 {
			t.Fatalf("hour %d: fresh burst filtered: %d survivors, want 3", hour, got)
		}
		// The long-lived client acts once an hour, staying active.
		cseq++
		live := Action{Kind: ActionMouseMove, CID: "sticky", CSeq: cseq}
		if got := len(a.sessions.fresh([]Action{live})); got != 1 {
			t.Fatalf("hour %d: active client's fresh action filtered", hour)
		}
		if n := a.DedupClients(); n > maxDedupClients {
			t.Fatalf("hour %d: dedup table grew to %d clients (cap %d)", hour, n, maxDedupClients)
		}
	}

	// A month later, a replay of the active client's very first action must
	// still be recognized as a duplicate... (maxSeq window, not the FIFO)
	if got := len(a.sessions.fresh([]Action{sticky})); got != 0 {
		t.Fatal("active client's stamps were evicted during churn: old action replayed")
	}
	// ...while the long-departed transient clients have been evicted: their
	// replays pass the filter again, the documented cost of bounding memory.
	ghost := Action{Kind: ActionMouseMove, CID: "churn-h0-0", CSeq: 2}
	if got := len(a.sessions.fresh([]Action{ghost})); got != 1 {
		t.Fatal("hour-0 transient client still holds dedup state after a month; eviction never ran")
	}
	if n := a.DedupClients(); n > maxDedupClients {
		t.Fatalf("final dedup table %d clients, cap %d", n, maxDedupClients)
	}
}

// TestDeltaRingStateRoundTrip: a session holding several delta bases exports
// the whole ring, restores byte-identically, and the restored agent serves a
// lagging participant an incremental delta against an imported ring base.
func TestDeltaRingStateRoundTrip(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob := w.join(t, "bob.lan")
	for _, s := range []*Snippet{alice, bob} {
		if _, err := s.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	// Three edits with only alice keeping up: the ring retains three bases,
	// and bob's ack is the second-oldest of them.
	for i := 1; i <= 3; i++ {
		hostEdit(t, w, i)
		if _, err := alice.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.agent.pipeline.basesRetained(); got != 3 {
		t.Fatalf("DeltaBasesRetained = %d, want 3", got)
	}
	// alice rode deltas, so only the joins' build has a marshaled snapshot:
	// the export itself must marshal the rest.
	cur, ring := w.agent.modeBuilds(false)
	for _, b := range append([]*PreparedContent{cur}, ring[:2]...) {
		if n := b.marshals.Load(); n != 0 {
			t.Fatalf("build %d marshaled %d times before export, want 0", b.docTime, n)
		}
	}

	first, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	w.server.Close()
	w.agent.Close()

	rb := browser.New("ringrestore.lan", w.corpus.Network.Dialer("ringrestore.lan"))
	t.Cleanup(rb.Close)
	restored, err := RestoreAgent(rb, agentAddr, first)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restored.Close)
	second, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("ring export → import → export not byte-identical:\n first: %s\nsecond: %s", first, second)
	}
	if got := restored.pipeline.basesRetained(); got != 3 {
		t.Fatalf("restored DeltaBasesRetained = %d, want 3", got)
	}

	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: restored}
	srv.Start(l)
	t.Cleanup(srv.Close)

	// bob is three builds behind but his base survived the restore in the
	// imported ring: his next poll must ride a delta, not a snapshot.
	updated, err := bob.PollOnce()
	if err != nil || !updated {
		t.Fatalf("lagging poll after restore: updated=%v err=%v", updated, err)
	}
	if got := restored.DeltasServed(); got != 1 {
		t.Fatalf("restored DeltasServed = %d, want 1", got)
	}
	if a, b := docHTML(t, alice.Browser), docHTML(t, bob.Browser); a != b {
		t.Fatalf("replicas diverged across ring restore:\nalice: %s\n  bob: %s", a, b)
	}
}

// TestStateImportV1SinglePrev: a checkpoint written before the delta-base
// ring existed carries at most one base in the legacy Prev fields and no
// "ring" key. It must still import — schema 1 is additive — and yield a
// one-deep ring.
func TestStateImportV1SinglePrev(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		hostEdit(t, w, i)
		if _, err := alice.PollOnce(); err != nil {
			t.Fatal(err)
		}
	}
	state, err := w.agent.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the snapshot into its pre-ring shape: keep the newest base in
	// the Prev fields, drop the Ring extension — exactly what an old writer
	// would have produced.
	var st agentState
	if err := json.Unmarshal(state, &st); err != nil {
		t.Fatal(err)
	}
	sawRing := false
	for i := range st.Prepared {
		if len(st.Prepared[i].Ring) > 0 {
			sawRing = true
		}
		st.Prepared[i].Ring = nil
	}
	if !sawRing {
		t.Fatal("test setup: export carried no ring extension to strip")
	}
	v1, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}

	rb := browser.New("v1restore.lan", w.corpus.Network.Dialer("v1restore.lan"))
	t.Cleanup(rb.Close)
	restored, err := RestoreAgent(rb, agentAddr, v1)
	if err != nil {
		t.Fatalf("v1 single-prev checkpoint refused: %v", err)
	}
	t.Cleanup(restored.Close)
	if got := restored.pipeline.basesRetained(); got != 1 {
		t.Fatalf("restored DeltaBasesRetained = %d, want 1 (the legacy Prev base)", got)
	}
}
