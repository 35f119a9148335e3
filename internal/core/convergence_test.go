package core

// Randomized full-session convergence harness — the system-level sibling of
// internal/dom's diff/patch property harness. Collabs-style randomized
// multi-client testing (PAPERS.md) is the only trustworthy evidence for
// convergence under concurrent operation streams, and PR 4 only had it for
// the DOM layer. Each scenario here drives one host plus 2–8 participants in
// mixed delivery modes (interval, long-poll, long-poll + action push, delta
// on and off) through a seeded random interleaving of host mutations,
// participant actions, disconnect/rejoin churn, forced delta desyncs, and
// real park/wake cycles, then asserts the two invariants everything else
// rests on:
//
//  1. Convergence: after a drain, every still-connected participant's DOM
//     serializes byte-identically to a freshly joined reference participant
//     (and therefore to the host's participant-equivalent document) — no
//     mode, desync, or interleaving may leave a replica diverged.
//  2. Exactly-once actions: every action fired by a never-disconnected
//     participant is processed by the agent's policy pipeline exactly once
//     (no loss when pushes degrade, no duplication between the /action
//     upstream and the piggyback path), and every mirrored pointer action
//     reaches every other stable participant exactly once.
//
// Scenarios are deterministic per seed; the suite runs >500 of them, split
// across parallel shards that each own an isolated virtual network.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// convergenceScenarios is the total scenario count (split across shards).
const convergenceScenarios = 512

// convergenceShards bounds wall-clock time; each shard runs its slice of
// scenarios sequentially on its own corpus and network.
const convergenceShards = 8

// convSites are the hosts scenarios browse between: the smaller Table 1
// pages, so scenario time goes to interleavings rather than parsing the
// corpus's megabyte homepages.
var convSites = []sites.SiteSpec{sites.Table1[1], sites.Table1[17], sites.Table1[3]}

// actionRecord tracks one fired action through the pipeline.
type actionRecord struct {
	key    string
	sender int  // index of the firing participant
	mirror bool // true for pointer actions every other participant must see
}

// countingPolicy applies every action and counts how many times each action
// key passed through the policy in Agent.merge — the exactly-once observable.
type countingPolicy struct {
	mu   sync.Mutex
	seen map[string]int
}

func (p *countingPolicy) Decide(_ string, act Action) Decision {
	if k := actionKey(act); k != "" {
		p.mu.Lock()
		p.seen[k]++
		p.mu.Unlock()
	}
	return Apply
}

func (p *countingPolicy) count(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[key]
}

// actionKey extracts the unique token the harness plants in each action it
// fires; untracked actions map to "".
func actionKey(act Action) string {
	switch act.Kind {
	case ActionMouseMove:
		return fmt.Sprintf("mm%d", act.X)
	case ActionFormInput:
		return act.Value
	}
	return ""
}

// convParticipant is one scripted participant: its snippet, receipt
// counters, and lifecycle bookkeeping.
type convParticipant struct {
	snip    *Snippet
	browser *browser.Browser
	pid     string
	churn   bool // may be disconnected/rejoined; exempt from assertions
	gone    bool // currently disconnected

	// Duplex participants run a live Run loop (the channel is inherently
	// asynchronous); stopRun/runDone manage its lifecycle per join
	// generation, runErrs collects errors a stable participant must never
	// see on a clean network.
	stopRun chan struct{}
	runDone chan struct{}

	mu       sync.Mutex
	received map[string]int // mirrored action key → deliveries
	runErrs  []error
}

// stopRunLoop ends the participant's Run loop, if one is active.
func (p *convParticipant) stopRunLoop() {
	if p.stopRun == nil {
		return
	}
	close(p.stopRun)
	<-p.runDone
	p.stopRun, p.runDone = nil, nil
}

func (p *convParticipant) onAction(act Action) {
	if k := actionKey(act); k != "" {
		p.mu.Lock()
		p.received[k]++
		p.mu.Unlock()
	}
}

func (p *convParticipant) receivedCount(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received[key]
}

// TestSessionConvergenceRandomized is the harness entry point.
func TestSessionConvergenceRandomized(t *testing.T) {
	perShard := convergenceScenarios / convergenceShards
	for shard := 0; shard < convergenceShards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			corpus, err := sites.NewCorpus()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(corpus.Close)
			for i := 0; i < perShard; i++ {
				idx := shard*perShard + i
				runConvergenceScenario(t, corpus, idx)
				if t.Failed() {
					return
				}
			}
		})
	}
}

// runConvergenceScenario executes one seeded scenario end to end.
func runConvergenceScenario(t *testing.T, corpus *sites.Corpus, idx int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(idx)*0x9E3779B9 + 0x5CB))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("scenario %d: %s", idx, fmt.Sprintf(format, args...))
	}

	addr := fmt.Sprintf("conv%d.lan:3000", idx)
	host := browser.New(fmt.Sprintf("convhost%d.lan", idx), corpus.Network.Dialer(fmt.Sprintf("convhost%d.lan", idx)))
	defer host.Close()
	agent := NewAgent(host, addr)
	policy := &countingPolicy{seen: make(map[string]int)}
	agent.Policy = policy
	agent.DefaultCacheMode = rng.Intn(4) == 0
	defer agent.Close()
	l, err := corpus.Network.Listen(addr)
	if err != nil {
		fail("listen: %v", err)
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	defer server.Close()

	if _, err := host.Navigate("http://" + convSites[rng.Intn(len(convSites))].Host() + "/"); err != nil {
		fail("host navigate: %v", err)
	}

	// Participants: 2–8, mixed configurations. With ≥3, one is a churn
	// participant that may be disconnected and rejoined mid-scenario.
	nParts := 2 + rng.Intn(7)
	parts := make([]*convParticipant, nParts)
	joinSeq := 0
	join := func(p *convParticipant) {
		p.stopRunLoop()
		joinSeq++
		p.pid = fmt.Sprintf("p%d", joinSeq)
		snip := NewSnippet(p.browser, "http://"+addr, "")
		snip.FetchObjects = false
		switch rng.Intn(4) {
		case 0, 1:
			snip.Delivery = DeliveryLongPoll
			// Tiny hang: a park that nothing wakes resolves in ~1ms, so the
			// synchronous scenario driver still exercises park/timeout
			// machinery without stalling.
			snip.LongPollWait = time.Millisecond
			snip.ActionPush = rng.Intn(2) == 0
		case 2:
			snip.Delivery = DeliveryDuplex
			snip.LongPollWait = time.Millisecond
			snip.PollInterval = 5 * time.Millisecond
			snip.ActionPush = rng.Intn(2) == 0
		}
		snip.DisableDelta = rng.Intn(3) == 0
		snip.OnUserAction = p.onAction
		if err := snip.Join(); err != nil {
			fail("join %s: %v", p.pid, err)
		}
		p.snip = snip
		p.gone = false
		if snip.Delivery == DeliveryDuplex {
			// The channel is push-driven, so a duplex participant runs the
			// real Run loop in the background instead of driver-paced polls.
			// On this clean network a stable participant must never see an
			// error; the churn participant's LEAVE close is expected.
			p.stopRun = make(chan struct{})
			p.runDone = make(chan struct{})
			go func(pp *convParticipant, sn *Snippet, stop, done chan struct{}) {
				defer close(done)
				sn.Run(stop, func(err error) {
					if pp.churn {
						return
					}
					pp.mu.Lock()
					pp.runErrs = append(pp.runErrs, err)
					pp.mu.Unlock()
				})
			}(p, snip, p.stopRun, p.runDone)
		}
	}
	for i := range parts {
		p := &convParticipant{
			browser:  browser.New(fmt.Sprintf("conv%dp%d.lan", idx, i), corpus.Network.Dialer(fmt.Sprintf("conv%dp%d.lan", idx, i))),
			received: make(map[string]int),
		}
		defer p.browser.Close()
		join(p)
		parts[i] = p
	}
	if nParts >= 3 {
		parts[rng.Intn(nParts)].churn = true
	}

	var fired []actionRecord
	token := 0
	hostGen := 0
	mutateHost := func() {
		hostGen++
		gen := hostGen
		var err error
		switch rng.Intn(5) {
		case 0: // navigate to another site
			_, err = host.Navigate("http://" + convSites[rng.Intn(len(convSites))].Host() + "/")
		case 1: // attribute write on the body
			err = host.ApplyMutation(func(doc *dom.Document) error {
				doc.Body().SetAttr("data-conv", fmt.Sprint(gen))
				return nil
			})
		case 2: // append a keyed element
			err = host.ApplyMutation(func(doc *dom.Document) error {
				el := dom.NewElement("div")
				el.SetAttr("id", fmt.Sprintf("conv-g%d", gen))
				el.AppendChild(dom.NewText(fmt.Sprintf("generation %d", gen)))
				doc.Body().AppendChild(el)
				return nil
			})
		case 3: // remove the last body child
			err = host.ApplyMutation(func(doc *dom.Document) error {
				kids := doc.Body().ChildElements()
				if len(kids) > 1 {
					doc.Body().RemoveChild(kids[len(kids)-1])
				} else {
					doc.Body().SetAttr("data-conv-miss", fmt.Sprint(gen))
				}
				return nil
			})
		default: // text edit inside an earlier keyed element, if any
			err = host.ApplyMutation(func(doc *dom.Document) error {
				for _, el := range doc.Body().ChildElements() {
					if strings.HasPrefix(el.AttrOr("id", ""), "conv-g") {
						el.ReplaceChildren(dom.NewText(fmt.Sprintf("edited %d", gen)))
						return nil
					}
				}
				doc.Body().SetAttr("data-conv-text", fmt.Sprint(gen))
				return nil
			})
		}
		if err != nil {
			fail("host mutation: %v", err)
		}
	}

	poll := func(p *convParticipant) (bool, int64) {
		if p.gone || p.snip.Delivery == DeliveryDuplex {
			// Duplex participants are fed by their Run loop; a driver poll
			// would race the channel reader over the same snippet.
			return false, 0
		}
		pre := p.snip.Stats()
		updated, err := p.snip.PollOnce()
		if err != nil {
			fail("poll %s: %v", p.pid, err)
		}
		post := p.snip.Stats()
		return updated, post.ActionsSent - pre.ActionsSent
	}

	fireAction := func(p *convParticipant, i int) {
		if p.gone || p.churn {
			return
		}
		token++
		if rng.Intn(4) == 0 && p.snip.DocTime() > 0 {
			// forminput against a rewritten element of the participant's
			// current document; unique value token for the policy count.
			var path string
			err := p.browser.WithDocument(func(_ string, doc *dom.Document) error {
				els := doc.Root.ElementsByTag("input")
				if len(els) == 0 {
					return nil
				}
				path = els[rng.Intn(len(els))].AttrOr(RCBAttr, "")
				return nil
			})
			if err != nil {
				fail("scan inputs: %v", err)
			}
			if path != "" {
				val := fmt.Sprintf("conv%d-t%d", idx, token)
				p.snip.dispatch(Action{Kind: ActionFormInput, Target: path, Value: val})
				fired = append(fired, actionRecord{key: val, sender: i})
				return
			}
		}
		x := token
		p.snip.dispatch(Action{Kind: ActionMouseMove, X: x, Y: i})
		fired = append(fired, actionRecord{key: fmt.Sprintf("mm%d", x), sender: i, mirror: true})
	}

	// parkWake runs one genuine hub cycle: park a long-poll participant for
	// real, wake it with a host mutation, and join the goroutine.
	parkWake := func(p *convParticipant) {
		if p.gone || p.snip.Delivery != DeliveryLongPoll {
			return
		}
		old := p.snip.LongPollWait
		p.snip.LongPollWait = 2 * time.Second
		pre := agent.ParkedPolls()
		done := make(chan error, 1)
		go func() {
			_, err := p.snip.PollOnce()
			done <- err
		}()
		deadline := time.Now().Add(10 * time.Second)
		bumped := false
		for {
			select {
			case err := <-done:
				if err != nil {
					fail("parked poll %s: %v", p.pid, err)
				}
				p.snip.LongPollWait = old
				return
			default:
			}
			if !bumped && agent.ParkedPolls() > pre {
				mutateHost()
				bumped = true
			}
			if time.Now().After(deadline) {
				fail("parked poll %s never completed", p.pid)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	churnCycle := func() {
		for _, p := range parts {
			if !p.churn {
				continue
			}
			if !p.gone {
				agent.Disconnect(p.pid)
				p.gone = true
			} else {
				join(p)
			}
			return
		}
	}

	ops := 8 + rng.Intn(17)
	parkWakes := 0
	for op := 0; op < ops; op++ {
		i := rng.Intn(nParts)
		p := parts[i]
		switch rng.Intn(10) {
		case 0, 1, 2:
			mutateHost()
		case 3, 4:
			poll(p)
		case 5, 6, 7:
			fireAction(p, i)
		case 8:
			switch rng.Intn(3) {
			case 0:
				churnCycle()
			case 1:
				if !p.gone {
					p.snip.desync() // forced delta desync: next poll resyncs in full
				}
			default:
				if parkWakes < 2 { // bounded: each cycle costs real wall time
					parkWakes++
					parkWake(p)
				}
			}
		default:
			poll(p)
		}
	}

	// Make sure churned participants end connected, then drain to a global
	// fixpoint: rounds of one poll per participant until a full round moves
	// no content, no piggybacked actions, and no mirror deliveries.
	for _, p := range parts {
		if p.gone {
			join(p)
		}
	}
	mutateHost() // final version every replica must reach

	// Channel traffic is asynchronous, so the driver cannot see it move.
	// quiesce waits until it has settled: first every duplex participant's
	// outbox is empty (the agent merged each action, and enqueued its
	// mirrors, before acking it), then every duplex channel has no wake
	// pending and its snippet has read every frame the agent wrote to it.
	// Sync participants need no wait: their polls are synchronous.
	var duplexParts []*convParticipant
	for _, p := range parts {
		if p.snip.Delivery == DeliveryDuplex {
			duplexParts = append(duplexParts, p)
		}
	}
	quiesce := func() {
		if !waitAll(duplexParts, func(p *convParticipant) bool { return outboxEmpty(p.snip) }) ||
			!waitAll(duplexParts, func(p *convParticipant) bool { return channelDrained(agent, p.pid, p.snip) }) {
			fail("duplex channel traffic never settled")
		}
	}
	quiesce()

	recvTotal := func() int {
		n := 0
		for _, p := range parts {
			p.mu.Lock()
			for _, c := range p.received {
				n += c
			}
			p.mu.Unlock()
		}
		return n
	}
	for round := 0; ; round++ {
		if round > 40 {
			fail("drain did not reach a fixpoint in %d rounds", round)
		}
		moved := false
		pre := recvTotal()
		for _, p := range parts {
			updated, sent := poll(p)
			if updated || sent > 0 {
				moved = true
			}
		}
		quiesce()
		if recvTotal() != pre {
			moved = true
		}
		if !moved {
			break
		}
	}

	// Reference replica: a fresh participant's first full snapshot is the
	// host's participant-equivalent document by construction.
	ref := &convParticipant{
		browser:  browser.New(fmt.Sprintf("conv%dref.lan", idx), corpus.Network.Dialer(fmt.Sprintf("conv%dref.lan", idx))),
		received: make(map[string]int),
	}
	defer ref.browser.Close()
	join(ref)
	// The reference only needs one synchronous snapshot poll; if the dice
	// gave it a duplex channel, retire that and poll directly.
	ref.stopRunLoop()
	ref.snip.Delivery = DeliveryInterval
	if _, err := ref.snip.PollOnce(); err != nil {
		fail("reference poll: %v", err)
	}
	want := docHTML(t, ref.browser)
	deadline := time.Now().Add(10 * time.Second)
	for i, p := range parts {
		got := docHTML(t, p.browser)
		// A duplex participant's final frame may still be in flight — the
		// driver's fixpoint cannot observe channel content movement — so
		// convergence for it is eventual, bounded by the deadline.
		for got != want && p.snip.Delivery == DeliveryDuplex && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
			got = docHTML(t, p.browser)
		}
		if got != want {
			fail("participant %d (%s, delivery=%d delta=%v push=%v churn=%v) diverged:\n got: %s\nwant: %s",
				i, p.pid, p.snip.Delivery, !p.snip.DisableDelta, p.snip.ActionPush, p.churn, got, want)
		}
	}

	// Channel quiescence: join every Run loop before counting deliveries,
	// and require that no stable duplex participant ever saw a run error on
	// this clean network.
	for i, p := range parts {
		p.stopRunLoop()
		p.mu.Lock()
		errs := p.runErrs
		p.mu.Unlock()
		if len(errs) > 0 {
			fail("participant %d (%s) duplex run errors: %v", i, p.pid, errs)
		}
	}

	// Exactly-once: every fired action reached the policy pipeline once, and
	// every mirrored pointer action reached every other stable participant
	// once — whether it traveled by push or by piggyback.
	for _, rec := range fired {
		if got := policy.count(rec.key); got != 1 {
			fail("action %s processed %d times by the host, want exactly 1", rec.key, got)
		}
		if !rec.mirror {
			continue
		}
		for i, p := range parts {
			if i == rec.sender || p.churn {
				continue
			}
			if got := p.receivedCount(rec.key); got != 1 {
				fail("participant %d received mirrored action %s %d times, want exactly 1", i, rec.key, got)
			}
		}
	}
}

// docHTML serializes a participant browser's full document.
func docHTML(t *testing.T, b *browser.Browser) string {
	t.Helper()
	var html string
	err := b.WithDocument(func(_ string, doc *dom.Document) error {
		html = dom.OuterHTML(doc.Root)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return html
}

// outboxEmpty reports whether every action s generated was confirmed by the
// agent.
func outboxEmpty(s *Snippet) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.Len() == 0
}

// channelDrained reports whether nothing is in flight on the agent's
// channel to pid: no mirror action waits in pid's outbox, no wake is queued
// or being flushed, and s has read every frame the agent committed to the
// channel. The frame count is read from s first; both only grow. A
// participant with no channel attached counts as drained — its polls are
// its caller's to drive. DuplexFramesIn counts every channel s ever had,
// so after a reattach the frame check is a lower bound only.
func channelDrained(a *Agent, pid string, s *Snippet) bool {
	read := s.Stats().DuplexFramesIn
	a.hub.mu.Lock()
	ch := a.hub.chans[pid]
	a.hub.mu.Unlock()
	if ch == nil {
		return true
	}
	if p, _ := a.sessions.lookup(pid); p != nil {
		p.mu.Lock()
		queued := len(p.mirror.acts)
		p.mu.Unlock()
		if queued > 0 {
			return false
		}
	}
	return ch.wakesPending.Load() == 0 && ch.framesWritten.Load() <= read
}

// waitAll waits up to 10 s for cond to hold for every item in one pass and
// reports whether it did.
func waitAll[T any](items []T, cond func(T) bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !allHold(items, cond) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// allHold reports whether cond holds for every item.
func allHold[T any](items []T, cond func(T) bool) bool {
	for _, it := range items {
		if !cond(it) {
			return false
		}
	}
	return true
}
