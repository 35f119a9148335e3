package core

// Durability chaos families — the kill-restore and live-handover siblings of
// TestChaosFaultInjection. Each seeded scenario drives 3–8 live Run loops
// over a shaped link (lossy, jittery, WAN, mobile), interleaves host
// mutations and participant actions with the durability event under test —
// a process death restored from an ExportState checkpoint, or a live
// HandoverInit → StateSync → Complete migration to a second agent — and
// asserts the same three invariants as the fault-injection harness:
// byte-identical convergence, exactly-once actions across the transfer, and
// close-reason discipline. Handover scenarios race the handshake against
// parked long-polls and in-flight action polls; some additionally cut the
// participants off from the old agent with a one-directional netsim
// Partition for the duration of the transfer.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
)

// durabilityScenarios is the per-family seeded-scenario count; -short keeps
// a smoke slice for the CI chaos stage.
const durabilityScenarios = 16

func TestChaosKillRestore(t *testing.T) {
	runDurabilityFamily(t, 0x0DEAD, runKillRestoreScenario)
}

func TestChaosLiveHandover(t *testing.T) {
	runDurabilityFamily(t, 0x4073D, runLiveHandoverScenario)
}

func runDurabilityFamily(t *testing.T, salt int64, scenario func(*testing.T, int64)) {
	scenarios := durabilityScenarios
	if testing.Short() {
		scenarios = 8
	}
	perShard := scenarios / chaosShards
	if perShard == 0 {
		perShard = 1
	}
	for shard := 0; shard < chaosShards && shard*perShard < scenarios; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < perShard && shard*perShard+i < scenarios; i++ {
				scenario(t, salt+int64(shard*perShard+i))
				if t.Failed() {
					return
				}
			}
		})
	}
}

// durabilityWorld is the shared scenario scaffolding: live Run loops over a
// shaped link, a fault ledger, an exactly-once policy, and swap-aware
// current-agent tracking so the durability event can replace the serving
// process mid-traffic.
type durabilityWorld struct {
	w      *world
	rng    *rand.Rand
	seed   int64
	policy *countingPolicy
	fail   func(string, ...any)

	// The serving process; durability events replace all three.
	curAgent  *Agent
	curHost   *browser.Browser
	curServer *httpwire.Server
	curAddr   string
	hostName  string // network host the current agent's process runs on

	snips []*Snippet
	stop  chan struct{}
	wg    sync.WaitGroup

	ledgerMu   sync.Mutex
	reasons    map[CloseReason]int
	violations []string

	fired   []string
	token   int
	hostGen int
}

func newDurabilityWorld(t *testing.T, seed int64) *durabilityWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0xD07A))
	d := &durabilityWorld{
		rng:     rng,
		seed:    seed,
		policy:  &countingPolicy{seen: make(map[string]int)},
		reasons: make(map[CloseReason]int),
		stop:    make(chan struct{}),
	}
	d.fail = func(format string, args ...any) {
		t.Helper()
		t.Fatalf("durability seed %d: %s", seed, fmt.Sprintf(format, args...))
	}
	d.w = newWorld(t, func(a *Agent) {
		a.Policy = d.policy
		a.MaxPollWait = 400 * time.Millisecond
	})
	d.w.corpus.Network.SetSeed(seed)
	d.curAgent, d.curHost, d.curServer = d.w.agent, d.w.host, d.w.server
	d.curAddr, d.hostName = agentAddr, "host.lan"

	// Agent-bound traffic rides the scenario's link; origin-site traffic
	// stays unshaped. Every agent in the scenario listens on a ":3000"
	// address, so handover targets are shaped too.
	link := chaosLinks[rng.Intn(len(chaosLinks))]
	d.w.corpus.Network.SetLinkPolicy(func(from, to string) netsim.Link {
		if !strings.HasSuffix(to, ":3000") {
			return netsim.Instant
		}
		return link
	})
	d.w.hostNavigate(t, "http://"+convSites[rng.Intn(len(convSites))].Host()+"/")

	recordErr := func(who string, err error) {
		var ce *CloseError
		if errors.As(err, &ce) {
			d.ledgerMu.Lock()
			d.reasons[ce.Reason]++
			if ce.Reason == CloseNone {
				d.violations = append(d.violations, who+": close error without reason: "+err.Error())
			}
			d.ledgerMu.Unlock()
			return
		}
		var bare *BareStatusError
		if errors.As(err, &bare) {
			d.ledgerMu.Lock()
			d.violations = append(d.violations, who+": terminal response without close reason: "+err.Error())
			d.ledgerMu.Unlock()
		}
	}

	n := 3 + rng.Intn(6)
	d.snips = make([]*Snippet, n)
	for i := 0; i < n; i++ {
		loc := fmt.Sprintf("dur%dp%d.lan", seed, i)
		pb := browser.New(loc, d.w.corpus.Network.Dialer(loc))
		t.Cleanup(pb.Close)
		pb.Client.ReadTimeout = 5 * time.Second
		s := NewSnippet(pb, "http://"+agentAddr, "")
		s.FetchObjects = false
		s.PollInterval = 20 * time.Millisecond
		s.RetryBase = 10 * time.Millisecond
		s.RetryMax = 250 * time.Millisecond
		jitterRng := rand.New(rand.NewSource(seed*131 + int64(i)))
		s.RetryRand = jitterRng.Float64
		if rng.Intn(3) != 0 {
			s.Delivery = DeliveryLongPoll
			s.LongPollWait = 150 * time.Millisecond
			rng.Intn(2) // the draw that once chose the action lane; kept so each seed names the same scenario
		}
		s.DisableDelta = rng.Intn(3) == 0
		var jerr error
		for attempt := 0; attempt < 25; attempt++ {
			if jerr = s.Join(); jerr == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if jerr != nil {
			d.fail("participant %d never joined: %v", i, jerr)
		}
		d.snips[i] = s
		who := fmt.Sprintf("p%d", i)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			s.Run(d.stop, func(err error) { recordErr(who, err) })
		}()
	}
	return d
}

func (d *durabilityWorld) mutate() {
	d.hostGen++
	gen := d.hostGen
	err := d.curHost.ApplyMutation(func(doc *dom.Document) error {
		el := dom.NewElement("div")
		el.SetAttr("id", fmt.Sprintf("dur-g%d", gen))
		el.AppendChild(dom.NewText(fmt.Sprintf("generation %d", gen)))
		doc.Body().AppendChild(el)
		return nil
	})
	if err != nil {
		d.fail("host mutation: %v", err)
	}
}

func (d *durabilityWorld) fireAction() {
	d.token++
	i := d.rng.Intn(len(d.snips))
	d.snips[i].QueueAction(Action{Kind: ActionMouseMove, X: d.token, Y: i})
	d.fired = append(d.fired, fmt.Sprintf("mm%d", d.token))
}

// finish waits for convergence on the current agent and asserts the three
// invariants. extraChecks runs after the Run loops have quiesced.
func (d *durabilityWorld) finish(t *testing.T, extraChecks func()) {
	t.Helper()
	d.mutate()
	marker := fmt.Sprintf(`id="dur-g%d"`, d.hostGen)

	bodyHas := func(s *Snippet, sub string) bool {
		var ok bool
		err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
			ok = doc.Body() != nil && strings.Contains(dom.InnerHTML(doc.Body()), sub)
			return nil
		})
		return err == nil && ok
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, s := range d.snips {
			if !bodyHas(s, marker) {
				done = false
				break
			}
		}
		if done {
			for _, key := range d.fired {
				if d.policy.count(key) == 0 {
					done = false
					break
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			var lag []string
			for i, s := range d.snips {
				if !bodyHas(s, marker) {
					st := s.Stats()
					lag = append(lag, fmt.Sprintf("p%d(delivery=%d rejoins=%d relocates=%d pollFailures=%d last=%s at=%s)",
						i, s.Delivery, st.Rejoins, st.Relocates, st.PollFailures, st.LastCloseReason, s.CurrentAgentURL()))
				}
			}
			for _, key := range d.fired {
				if d.policy.count(key) == 0 {
					lag = append(lag, "lost action "+key)
				}
			}
			d.fail("no convergence after the durability event: %s", strings.Join(lag, ", "))
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(d.stop)
	d.wg.Wait()

	// Invariant 1 — convergence: byte-identical to a fresh reference join
	// at the current agent's address.
	refLoc := fmt.Sprintf("dur%dref.lan", d.seed)
	rb := browser.New(refLoc, d.w.corpus.Network.Dialer(refLoc))
	t.Cleanup(rb.Close)
	rb.Client.ReadTimeout = 5 * time.Second
	ref := NewSnippet(rb, "http://"+d.curAddr, "")
	ref.FetchObjects = false
	var refErr error
	for attempt := 0; attempt < 25; attempt++ {
		if refErr = ref.Join(); refErr == nil {
			if _, refErr = ref.PollOnce(); refErr == nil {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if refErr != nil {
		d.fail("reference replica never synced: %v", refErr)
	}
	want := docHTML(t, rb)
	for i, s := range d.snips {
		if got := docHTML(t, s.Browser); got != want {
			d.fail("participant %d diverged:\n got: %s\nwant: %s", i, got, want)
		}
	}

	// Invariant 2 — exactly-once across the transfer.
	for _, key := range d.fired {
		if got := d.policy.count(key); got != 1 {
			d.fail("action %s processed %d times, want exactly 1", key, got)
		}
	}

	// Invariant 3 — close-reason discipline.
	d.ledgerMu.Lock()
	violations := append([]string(nil), d.violations...)
	d.ledgerMu.Unlock()
	if len(violations) > 0 {
		d.fail("close-reason violations: %s", strings.Join(violations, "; "))
	}

	if extraChecks != nil {
		extraChecks()
	}
}

// runSchedule interleaves mutations and actions, invoking event() at a
// random point mid-traffic with actions fired tight around it.
func (d *durabilityWorld) runSchedule(event func()) {
	pre := 3 + d.rng.Intn(4)
	post := 3 + d.rng.Intn(4)
	step := func() {
		if d.rng.Intn(2) == 0 {
			d.mutate()
		} else {
			d.fireAction()
		}
		time.Sleep(time.Duration(2+d.rng.Intn(9)) * time.Millisecond)
	}
	for i := 0; i < pre; i++ {
		step()
	}
	// Race the event against in-flight pushes and parked polls: fire on
	// both edges with no settling pause.
	d.fireAction()
	event()
	d.fireAction()
	for i := 0; i < post; i++ {
		step()
	}
}

// runKillRestoreScenario kills the serving process mid-traffic — listener
// gone, parked polls dropped — checkpoints it, and restores the session
// into a fresh agent and browser at the same address after a short outage.
func runKillRestoreScenario(t *testing.T, seed int64) {
	t.Helper()
	d := newDurabilityWorld(t, seed)
	restarts := 1 + d.rng.Intn(2)
	gen := 0
	killRestore := func() {
		gen++
		// Close the server first: in-flight merges complete or die before
		// the snapshot, so the checkpoint is the process's final word and
		// restore cannot double-apply an action.
		d.curServer.Close()
		d.curAgent.Close()
		state, err := d.curAgent.ExportState()
		if err != nil {
			d.fail("checkpoint: %v", err)
		}
		time.Sleep(time.Duration(2+d.rng.Intn(14)) * time.Millisecond)

		loc := fmt.Sprintf("dur%dresh%d.lan", seed, gen)
		nb := browser.New(loc, d.w.corpus.Network.Dialer(loc))
		t.Cleanup(nb.Close)
		restored, err := RestoreAgent(nb, d.curAddr, state)
		if err != nil {
			d.fail("restore: %v", err)
		}
		restored.Policy = d.policy
		restored.MaxPollWait = 400 * time.Millisecond
		t.Cleanup(restored.Close)
		l, err := d.w.corpus.Network.Listen(d.curAddr)
		if err != nil {
			d.fail("relisten: %v", err)
		}
		srv := &httpwire.Server{Handler: restored}
		srv.Start(l)
		t.Cleanup(srv.Close)
		d.curAgent, d.curHost, d.curServer = restored, nb, srv
	}
	for i := 0; i < restarts; i++ {
		d.runSchedule(killRestore)
	}
	d.finish(t, nil)
}

// runLiveHandoverScenario migrates the session to a second agent process
// mid-traffic via the live handshake. Odd seeds additionally partition the
// participants away from the old agent for the duration of the transfer and
// heal afterwards, so the fleet discovers the move only once the network
// recovers.
func runLiveHandoverScenario(t *testing.T, seed int64) {
	t.Helper()
	d := newDurabilityWorld(t, seed)
	partition := seed%2 != 0
	var oldAgents []*Agent
	gen := 0
	handover := func() {
		gen++
		rcvHost := fmt.Sprintf("dur%dh2g%d.lan", seed, gen)
		rcvAddr := rcvHost + ":3000"
		hb := browser.New(rcvHost, d.w.corpus.Network.Dialer(rcvHost))
		t.Cleanup(hb.Close)
		rcv := NewAgent(hb, rcvAddr)
		rcv.AllowHandover = true
		rcv.Policy = d.policy
		rcv.MaxPollWait = 400 * time.Millisecond
		t.Cleanup(rcv.Close)
		l, err := d.w.corpus.Network.Listen(rcvAddr)
		if err != nil {
			d.fail("receiver listen: %v", err)
		}
		srv := &httpwire.Server{Handler: rcv}
		srv.Start(l)
		t.Cleanup(srv.Close)

		if partition {
			// Cut every participant off from the old agent: the handshake
			// (old host → new address) is unaffected, but the fleet cannot
			// learn of the move until the network heals.
			d.w.corpus.Network.Partition("", d.curAddr)
		}
		client := httpwire.NewClient(d.w.corpus.Network.Dialer(d.hostName))
		var herr error
		for attempt := 0; attempt < 3; attempt++ {
			// The receiver side is idempotent, so retrying a handshake that
			// lost a response on a lossy link is safe.
			if herr = d.curAgent.HandoverTo(client, rcvAddr); herr == nil {
				break
			}
		}
		if herr != nil {
			d.fail("handover: %v", herr)
		}
		if partition {
			d.w.corpus.Network.Heal("", d.curAddr)
		}
		oldAgents = append(oldAgents, d.curAgent)
		d.curAgent, d.curHost, d.curServer = rcv, hb, srv
		d.curAddr, d.hostName = rcvAddr, rcvHost
	}
	d.runSchedule(handover)
	d.finish(t, func() {
		for i, old := range oldAgents {
			if got := old.RelocatedTo(); got == "" {
				d.fail("old agent %d not marked relocated after handover", i)
			}
		}
		for i, s := range d.snips {
			if got := s.Stats().Relocates; got < 1 {
				d.fail("participant %d never relocated (Relocates=%d)", i, got)
			}
			if got, want := s.CurrentAgentURL(), "http://"+d.curAddr; got != want {
				d.fail("participant %d ended at %q, want %q", i, got, want)
			}
		}
		d.ledgerMu.Lock()
		moved := d.reasons[CloseMoved]
		d.ledgerMu.Unlock()
		if moved == 0 {
			d.fail("no MOVED close reason ever surfaced during a live handover")
		}
	})
}
