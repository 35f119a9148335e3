package core

// Fault-injection chaos harness — the adversarial sibling of the randomized
// convergence harness in convergence_test.go. Where that harness drives
// synchronous polls over a healthy network, this one runs each participant's
// real Run loop concurrently and then attacks the session with the failures
// an RCB deployment actually meets: lossy and high-latency links (netsim
// loss/jitter/mobile profiles), listener drops and agent-side server
// restarts (including restarts while long-polls are parked), link flaps that
// reset every established flow, and forced disconnects with explicit close
// reasons. Scenarios are deterministic per seed and assert the three
// robustness invariants of this PR:
//
//  1. Convergence: once the network heals, every participant's document
//     serializes byte-identically to a freshly joined reference replica —
//     whatever was dropped, reset, or restarted along the way.
//  2. Exactly-once actions: every action fired during the chaos reaches the
//     agent's policy pipeline exactly once — the at-least-once retry paths
//     (rewind after a failed upstream, rejoin re-send) never lose an action and
//     the (CID, CSeq) replay filter never double-applies one.
//  3. Close-reason discipline: every terminal response a snippet observes
//     carries a non-zero close reason; bare 4xx/5xx terminations are
//     protocol violations.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
)

// chaosScenarios is the full seeded-scenario count; -short keeps a smoke
// slice so the CI chaos stage stays quick under -race. CHAOS_SCENARIOS
// overrides it, the way SCENLAB_N sizes the scale lab, so CI smoke and
// local full runs share one harness.
var chaosScenarios = envInt("CHAOS_SCENARIOS", 64)

// chaosShards run in parallel; each shard owns its scenarios' networks.
// CHAOS_SHARDS overrides.
var chaosShards = envInt("CHAOS_SHARDS", 8)

// envInt reads a positive integer knob from the environment, falling back
// to def when unset or unparsable.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// chaosLinks are the participant→agent link shapes scenarios draw from,
// scaled so round trips stay in the low-millisecond range: an unshaped LAN,
// a 2%-loss jittery link, a scaled-down residential WAN, and a scaled-down
// lossy mobile link.
var chaosLinks = []netsim.Link{
	netsim.Instant,
	{Jitter: time.Millisecond, LossRate: 0.02},
	netsim.WAN.Scaled(40),
	func() netsim.Link {
		l := netsim.Mobile.Scaled(50)
		l.LossRate = 0.01
		return l
	}(),
}

// chaosFault enumerates the injectable failures.
type chaosFault int

const (
	faultServerRestart   chaosFault = iota // drop the listener, restart after a pause
	faultMidParkRestart                    // same, but wait for a parked long-poll first
	faultLinkFlap                          // reset established flows, total loss for a stretch
	faultForceDisconnect                   // agent ejects a participant with a retryable reason
	chaosFaultKinds
)

func TestChaosFaultInjection(t *testing.T) {
	scenarios := chaosScenarios
	if testing.Short() {
		scenarios = 16
	}
	perShard := scenarios / chaosShards
	if perShard == 0 {
		perShard = 1
	}
	for shard := 0; shard < chaosShards && shard*perShard < scenarios; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < perShard; i++ {
				runChaosScenario(t, int64(shard*perShard+i))
				if t.Failed() {
					return
				}
			}
		})
	}
}

// runChaosScenario executes one seeded fault scenario end to end: build a
// session of 3–8 live Run loops, interleave host mutations and participant
// actions with injected faults, heal the network, and assert convergence,
// exactly-once actions, and close-reason discipline.
func runChaosScenario(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 0xC4A05))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("chaos seed %d: %s", seed, fmt.Sprintf(format, args...))
	}

	policy := &countingPolicy{seen: make(map[string]int)}
	w := newWorld(t, func(a *Agent) {
		a.Policy = policy
		// Short hang cap so park/timeout cycles complete many times per
		// scenario; large enough that a park is unambiguously a park.
		a.MaxPollWait = 400 * time.Millisecond
	})
	w.corpus.Network.SetSeed(seed)

	// Participant→agent traffic rides the scenario's link profile; during a
	// flap it rides a total-loss link whose every write resets. Origin-site
	// traffic stays unshaped — the faults under test are on the RCB channel.
	var flap atomic.Bool
	link := chaosLinks[rng.Intn(len(chaosLinks))]
	w.corpus.Network.SetLinkPolicy(func(from, to string) netsim.Link {
		if to != agentAddr {
			return netsim.Instant
		}
		if flap.Load() {
			return netsim.Link{LossRate: 1}
		}
		return link
	})
	w.hostNavigate(t, "http://"+convSites[rng.Intn(len(convSites))].Host()+"/")

	// The fault ledger: every CloseError any snippet surfaces, plus any
	// protocol violation (a terminal response without a reason).
	var ledgerMu sync.Mutex
	reasons := make(map[CloseReason]int)
	var violations []string
	recordErr := func(who string, err error) {
		var ce *CloseError
		if errors.As(err, &ce) {
			ledgerMu.Lock()
			reasons[ce.Reason]++
			if ce.Reason == CloseNone {
				violations = append(violations, who+": close error without reason: "+err.Error())
			}
			ledgerMu.Unlock()
			return
		}
		var bare *BareStatusError
		if errors.As(err, &bare) {
			ledgerMu.Lock()
			violations = append(violations, who+": terminal response without close reason: "+err.Error())
			ledgerMu.Unlock()
		}
	}

	// 3–8 participants, mixed delivery configurations, each on its own live
	// Run loop with fast deterministic backoff.
	n := 3 + rng.Intn(6)
	snips := make([]*Snippet, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		loc := fmt.Sprintf("chaos%dp%d.lan", seed, i)
		pb := browser.New(loc, w.corpus.Network.Dialer(loc))
		t.Cleanup(pb.Close)
		// Bound every default-lane exchange so no join or interval poll can
		// block forever on a connection a fault half-killed; long-polls pass
		// their own larger per-call deadline, which takes precedence.
		pb.Client.ReadTimeout = 5 * time.Second
		s := NewSnippet(pb, "http://"+agentAddr, "")
		s.FetchObjects = false
		s.PollInterval = 20 * time.Millisecond
		s.RetryBase = 10 * time.Millisecond
		s.RetryMax = 250 * time.Millisecond
		jitterRng := rand.New(rand.NewSource(seed*101 + int64(i)))
		s.RetryRand = jitterRng.Float64
		switch rng.Intn(6) {
		case 0, 1, 2:
			s.Delivery = DeliveryLongPoll
			s.LongPollWait = 150 * time.Millisecond
			rng.Intn(2) // the draw that once chose the action lane; kept so each seed names the same scenario
		case 3, 4:
			// Full-duplex channel participants: every fault severs or refuses
			// the channel, so these exercise the whole degradation ladder —
			// duplex → long-poll fallback → backoff → re-upgrade — plus the
			// outbox rewind when a write raced a reset.
			s.Delivery = DeliveryDuplex
			s.LongPollWait = 150 * time.Millisecond
			rng.Intn(2) // the draw that once chose the action lane; kept so each seed names the same scenario
		}
		s.DisableDelta = rng.Intn(3) == 0
		// The initial join may ride a lossy link; retry briefly.
		var jerr error
		for attempt := 0; attempt < 25; attempt++ {
			if jerr = s.Join(); jerr == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if jerr != nil {
			fail("participant %d never joined: %v", i, jerr)
		}
		snips[i] = s
		who := fmt.Sprintf("p%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Run(stop, func(err error) { recordErr(who, err) })
		}()
	}
	stopped := false
	defer func() {
		if !stopped {
			close(stop)
		}
		wg.Wait()
	}()

	// Server lifecycle: faults replace w.server; track the live one.
	cur := w.server
	restart := func(downtime time.Duration) {
		cur.Close()
		time.Sleep(downtime)
		l, err := w.corpus.Network.Listen(agentAddr)
		if err != nil {
			fail("relisten: %v", err)
		}
		srv := &httpwire.Server{Handler: w.agent}
		srv.Start(l)
		t.Cleanup(srv.Close)
		cur = srv
	}

	hostGen := 0
	mutate := func() {
		hostGen++
		gen := hostGen
		err := w.host.ApplyMutation(func(doc *dom.Document) error {
			el := dom.NewElement("div")
			el.SetAttr("id", fmt.Sprintf("chaos-g%d", gen))
			el.AppendChild(dom.NewText(fmt.Sprintf("generation %d", gen)))
			doc.Body().AppendChild(el)
			return nil
		})
		if err != nil {
			fail("host mutation: %v", err)
		}
	}

	var fired []string
	token := 0
	fireAction := func() {
		token++
		i := rng.Intn(n)
		// Globally unique X per scenario → key "mm<token>" for the policy's
		// exactly-once count. QueueAction routes by the snippet's mode: a
		// channel frame or an action poll at once, or the next poll.
		snips[i].QueueAction(Action{Kind: ActionMouseMove, X: token, Y: i})
		fired = append(fired, fmt.Sprintf("mm%d", token))
	}

	forced := 0
	inject := func(f chaosFault) {
		switch f {
		case faultServerRestart:
			restart(time.Duration(2+rng.Intn(14)) * time.Millisecond)
		case faultMidParkRestart:
			// Give the long-pollers a beat to park, then pull the listener
			// out from under the parked exchanges.
			deadline := time.Now().Add(300 * time.Millisecond)
			for w.agent.ParkedPolls() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			restart(time.Duration(2+rng.Intn(14)) * time.Millisecond)
		case faultLinkFlap:
			flap.Store(true)
			w.corpus.Network.ResetConns(agentAddr)
			time.Sleep(time.Duration(5+rng.Intn(16)) * time.Millisecond)
			flap.Store(false)
		case faultForceDisconnect:
			parts := w.agent.Participants()
			if len(parts) == 0 {
				return
			}
			reason := CloseStaleReader
			if rng.Intn(2) == 0 {
				reason = CloseOvercommitted
			}
			w.agent.DisconnectWith(parts[rng.Intn(len(parts))].ID, reason)
			forced++
		}
	}

	// Build and shuffle the event schedule: mutations, actions, and 1–4
	// faults, executed with small pauses so the Run loops interleave.
	type event struct {
		kind  int // 0 mutate, 1 action, 2 fault
		fault chaosFault
	}
	var schedule []event
	for i := 0; i < 5+rng.Intn(5); i++ {
		schedule = append(schedule, event{kind: 0})
	}
	for i := 0; i < n+rng.Intn(n+1); i++ {
		schedule = append(schedule, event{kind: 1})
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		schedule = append(schedule, event{kind: 2, fault: chaosFault(rng.Intn(int(chaosFaultKinds)))})
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
	for _, ev := range schedule {
		switch ev.kind {
		case 0:
			mutate()
		case 1:
			fireAction()
		case 2:
			inject(ev.fault)
		}
		time.Sleep(time.Duration(2+rng.Intn(9)) * time.Millisecond)
	}

	// Heal and publish the final generation every replica must reach.
	flap.Store(false)
	mutate()
	marker := fmt.Sprintf(`id="chaos-g%d"`, hostGen)

	// Convergence wait: every participant applies the final generation and
	// every fired action reaches the policy at least once. The Run loops and
	// rejoin machinery do all the recovery work; this loop only observes.
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
		for _, s := range snips {
			if !bodyHas(s, marker) {
				done = false
				break
			}
		}
		if done {
			for _, key := range fired {
				if policy.count(key) == 0 {
					done = false
					break
				}
			}
		}
		// Quiescence: every action confirmed, and every frame the agent
		// wrote to a live channel read by its snippet.
		if done && allHold(snips, outboxEmpty) {
			done = allHold(snips, func(s *Snippet) bool { return channelDrained(w.agent, pidOf(s), s) })
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			var lag []string
			for i, s := range snips {
				if !bodyHas(s, marker) {
					st := s.Stats()
					lag = append(lag, fmt.Sprintf("p%d(delivery=%d rejoins=%d pollFailures=%d last=%s)",
						i, s.Delivery, st.Rejoins, st.PollFailures, st.LastCloseReason))
				}
			}
			for _, key := range fired {
				if policy.count(key) == 0 {
					lag = append(lag, "lost action "+key)
				}
			}
			for i, s := range snips {
				if !outboxEmpty(s) {
					lag = append(lag, fmt.Sprintf("p%d outbox not empty", i))
				} else if !channelDrained(w.agent, pidOf(s), s) {
					lag = append(lag, fmt.Sprintf("p%d channel not drained", i))
				}
			}
			fail("no convergence after healing: %s", strings.Join(lag, ", "))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Quiesce the loops before the byte-level comparison.
	close(stop)
	stopped = true
	wg.Wait()

	// Invariant 1 — convergence: byte-identical to a fresh reference join.
	refLoc := fmt.Sprintf("chaos%dref.lan", seed)
	rb := browser.New(refLoc, w.corpus.Network.Dialer(refLoc))
	t.Cleanup(rb.Close)
	rb.Client.ReadTimeout = 5 * time.Second
	ref := NewSnippet(rb, "http://"+agentAddr, "")
	ref.FetchObjects = false
	// The reference rides the same (possibly lossy) link profile; a reset on
	// its exchanges is scenario noise, not a finding. Retry briefly.
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
		fail("reference replica never synced: %v", refErr)
	}
	want := docHTML(t, rb)
	for i, s := range snips {
		if got := docHTML(t, s.Browser); got != want {
			fail("participant %d diverged after chaos:\n got: %s\nwant: %s", i, got, want)
		}
	}

	// Invariant 2 — exactly-once: the at-least-once retries delivered every
	// action, and the replay filter collapsed every duplicate.
	for _, key := range fired {
		if got := policy.count(key); got != 1 {
			fail("action %s processed %d times, want exactly 1", key, got)
		}
	}

	// Invariant 3 — close-reason discipline: no bare terminations, and every
	// forced disconnect surfaced as an explicit reason on the wire.
	ledgerMu.Lock()
	defer ledgerMu.Unlock()
	if len(violations) > 0 {
		fail("close-reason violations: %s", strings.Join(violations, "; "))
	}
	if forced > 0 {
		// The exact reason can surface as UNKNOWN when a flap ate the
		// original close response and the snippet learned of its removal one
		// poll later — what matters is that some explicit reason arrived.
		total := 0
		for r, c := range reasons {
			if r != CloseNone {
				total += c
			}
		}
		if total == 0 {
			fail("%d forced disconnects but no close reason ever surfaced", forced)
		}
	}
}
