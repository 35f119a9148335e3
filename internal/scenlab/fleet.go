package scenlab

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
	"rcb/internal/sites"
)

// Agent addresses are fixed so the link policy can be installed once,
// before anything dials: participant traffic to either agent rides the
// scenario profile, origin-site traffic stays unshaped.
const (
	primaryAddr  = "agent.lan:3000"
	handoverAddr = "agent2.lan:3000"
)

// agentSite is one live RCB-Agent: its host browser, the agent, and the
// server speaking for it on the simulated network.
type agentSite struct {
	hostName string
	host     *browser.Browser
	agent    *core.Agent
	server   *httpwire.Server
	addr     string
}

func (s *agentSite) close() {
	s.agent.Close()
	s.server.Close()
	s.host.Close()
}

// countPolicy is the exactly-once ledger: every action the agent's policy
// pipeline sees is keyed and counted, and the family's final audit
// requires each fired key to have been applied exactly once.
type countPolicy struct {
	mu   sync.Mutex
	seen map[string]int
}

func (p *countPolicy) Decide(_ string, act core.Action) core.Decision {
	var key string
	switch act.Kind {
	case core.ActionFormInput:
		key = act.Value
	case core.ActionMouseMove:
		key = fmt.Sprintf("mm:%d:%d", act.X, act.Y)
	}
	if key != "" {
		p.mu.Lock()
		p.seen[key]++
		p.mu.Unlock()
	}
	return core.Apply
}

func (p *countPolicy) count(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[key]
}

// probe measures one round's staleness: armed at docTime target before the
// mutation lands, stamped by each lite the first time it holds content at
// or past the target.
type probe struct {
	target    int64
	start     time.Time
	stamps    []atomic.Int64 // nanos after start; 0 = unreached
	remaining atomic.Int64
	done      chan struct{}
}

func newProbe(target int64, n int) *probe {
	p := &probe{target: target, start: time.Now(), stamps: make([]atomic.Int64, n), done: make(chan struct{})}
	p.remaining.Store(int64(n))
	return p
}

func (p *probe) stampIfReached(idx int, ts int64) {
	if ts < p.target {
		return
	}
	ns := time.Since(p.start).Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	if p.stamps[idx].CompareAndSwap(0, ns) {
		if p.remaining.Add(-1) == 0 {
			close(p.done)
		}
	}
}

// latencies returns the reached stamps, sorted ascending, plus the count
// of lites that never reached the target.
func (p *probe) latencies() (reached []time.Duration, unreached int) {
	for i := range p.stamps {
		if ns := p.stamps[i].Load(); ns > 0 {
			reached = append(reached, time.Duration(ns))
		} else {
			unreached++
		}
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
	return reached, unreached
}

// sentinel is a full-Snippet participant with a real document — the
// correctness oracle the convergence check compares against the reference
// replica.
type sentinel struct {
	idx  int
	b    *browser.Browser
	snip *core.Snippet
	cid  string
	cseq atomic.Int64
	stop chan struct{}
	done chan struct{}
}

// fireInput dispatches a forminput action on the first rewritten input in
// the sentinel's document (the generated pages' search box), stamped with
// the sentinel's own replay identity, through the snippet's outbox: sent at
// once on a live duplex channel or as a long-poll action poll pipelined
// behind the parked one, on the next poll in interval mode.
func (s *sentinel) fireInput(value string) error {
	var path string
	err := s.b.WithDocument(func(_ string, doc *dom.Document) error {
		for _, el := range doc.Root.ElementsByTag("input") {
			if p := el.AttrOr(core.RCBAttr, ""); p != "" {
				path = p
				return nil
			}
		}
		return fmt.Errorf("sentinel %d: no rewritten input in document", s.idx)
	})
	if err != nil {
		return err
	}
	act := core.Action{Kind: core.ActionFormInput, Target: path, Value: value,
		CID: s.cid, CSeq: s.cseq.Add(1)}
	s.snip.QueueAction(act)
	return nil
}

func (s *sentinel) docHTML() (string, error) {
	var html string
	err := s.b.WithDocument(func(_ string, doc *dom.Document) error {
		html = dom.OuterHTML(doc.Root)
		return nil
	})
	return html, err
}

// fleet is one scenario's whole world: the corpus network, the live
// agent(s), N lite drivers, the sentinel subset, the staleness probe, and
// the violation ledger.
type fleet struct {
	cfg    Config
	corpus *sites.Corpus
	net    *netsim.Network
	policy *countPolicy

	cur     atomic.Pointer[agentSite]
	primary *agentSite
	standby *agentSite // writer-turns handover target, nil otherwise

	lites     []*lite
	sentinels []*sentinel
	liteMeter *meter
	stopOnce  sync.Once // stopParticipants

	probe atomic.Pointer[probe]

	violMu sync.Mutex
	viols  []string

	firedMu sync.Mutex
	fired   []string // exactly-once keys, in fire order

	tokenSeq atomic.Int64

	startedAt  time.Time
	joinWall   time.Duration
	joinBytes  int64
	joinBuilds int64
	stats      []RoundStat

	// Lite mix overrides, set by families before spawnLites.
	allLongPoll bool
	allDelta    bool
	liteWait    time.Duration

	// roundBudget, when non-zero, replaces the profile's RoundBytes for
	// this run — families whose shape is strictly cheaper than the
	// profile's worst case pin a tighter ceiling.
	roundBudget int64
}

func newFleet(cfg Config) (*fleet, error) {
	corpus, err := sites.NewCorpus()
	if err != nil {
		return nil, err
	}
	f := &fleet{
		cfg:       cfg,
		corpus:    corpus,
		net:       corpus.Network,
		policy:    &countPolicy{seen: make(map[string]int)},
		liteMeter: &meter{},
		liteWait:  2 * time.Second,
		startedAt: time.Now(),
	}
	f.net.SetSeed(cfg.Seed)
	// Participant→agent traffic rides the profile; origin-site fetches and
	// the reference oracle stay unshaped — the behavior under test lives
	// on the RCB channel.
	link := cfg.Profile.Link
	f.net.SetLinkPolicy(func(from, to string) netsim.Link {
		if to != primaryAddr && to != handoverAddr {
			return netsim.Instant
		}
		if strings.HasPrefix(from, "lite") || strings.HasPrefix(from, "sent") {
			return link
		}
		return netsim.Instant
	})
	f.primary, err = f.startAgent("host.lan", primaryAddr)
	if err != nil {
		corpus.Close()
		return nil, err
	}
	f.cur.Store(f.primary)
	if _, err := f.primary.host.Navigate("http://" + sites.Table1[1].Host() + "/"); err != nil {
		f.close()
		return nil, fmt.Errorf("host navigate: %w", err)
	}
	return f, nil
}

func (f *fleet) startAgent(hostName, addr string) (*agentSite, error) {
	hb := browser.New(hostName, f.net.Dialer(hostName))
	agent := core.NewAgent(hb, addr)
	agent.Policy = f.policy
	agent.MaxPollWait = 10 * time.Second
	agent.ShedRetryAfter = 200 * time.Millisecond
	l, err := f.net.Listen(addr)
	if err != nil {
		hb.Close()
		agent.Close()
		return nil, err
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	return &agentSite{hostName: hostName, host: hb, agent: agent, server: server, addr: addr}, nil
}

// addr is the agent address the fleet currently converges on.
func (f *fleet) addr() string { return f.cur.Load().addr }

func (f *fleet) agent() *core.Agent { return f.cur.Load().agent }

// knownAgent reports whether a relocation target or a client's current
// agent URL names one of the fleet's agents; anything else is a protocol
// violation.
func knownAgent(addr string) bool {
	addr = strings.TrimPrefix(addr, "http://")
	return addr == primaryAddr || addr == handoverAddr
}

func (f *fleet) violate(format string, args ...any) {
	f.violMu.Lock()
	defer f.violMu.Unlock()
	if len(f.viols) < 32 {
		f.viols = append(f.viols, fmt.Sprintf(format, args...))
	} else if len(f.viols) == 32 {
		f.viols = append(f.viols, "... more violations truncated")
	}
}

func (f *fleet) violations() []string {
	f.violMu.Lock()
	defer f.violMu.Unlock()
	return append([]string(nil), f.viols...)
}

// fireToken queues a uniquely keyed pointer action in a lite's outbox for
// its next poll and records the key for the exactly-once audit.
func (f *fleet) fireToken(l *lite) {
	tok := int(f.tokenSeq.Add(1))
	key := fmt.Sprintf("mm:%d:%d", tok, l.idx)
	f.firedMu.Lock()
	f.fired = append(f.fired, key)
	f.firedMu.Unlock()
	l.c.QueueAction(core.Action{Kind: core.ActionMouseMove, X: tok, Y: l.idx})
}

// fireSentinelInput fires a uniquely valued forminput from a sentinel and
// records it for the exactly-once audit.
func (f *fleet) fireSentinelInput(s *sentinel, value string) error {
	f.firedMu.Lock()
	f.fired = append(f.fired, value)
	f.firedMu.Unlock()
	return s.fireInput(value)
}

func (f *fleet) firedKeys() []string {
	f.firedMu.Lock()
	defer f.firedMu.Unlock()
	return append([]string(nil), f.fired...)
}

// spawnSentinels joins and runs the full-Snippet oracles: a mix of
// long-poll, duplex, and interval deliveries unless the family forces all
// long-poll.
func (f *fleet) spawnSentinels() error {
	for i := 0; i < f.cfg.Sentinels; i++ {
		host := fmt.Sprintf("sent%d.lan", i)
		b := browser.New(host, f.net.Dialer(host))
		s := core.NewSnippet(b, "http://"+f.addr(), "")
		s.LongPollWait = 2 * time.Second
		s.PollInterval = 200 * time.Millisecond
		s.RetryBase = 10 * time.Millisecond
		s.RetryMax = 250 * time.Millisecond
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(i)*7919))
		var rmu sync.Mutex
		s.RetryRand = func() float64 { rmu.Lock(); defer rmu.Unlock(); return rng.Float64() }
		s.ClientID = fmt.Sprintf("sent%d", i)
		s.Delivery = core.DeliveryLongPoll
		if !f.allLongPoll {
			switch {
			case i == 1:
				s.Delivery = core.DeliveryDuplex
			case i%3 == 2:
				s.Delivery = core.DeliveryInterval
			}
		}
		sent := &sentinel{idx: i, b: b, snip: s, cid: s.ClientID,
			stop: make(chan struct{}), done: make(chan struct{})}
		var joinErr error
		for attempt := 0; attempt < 20; attempt++ {
			if joinErr = s.Join(); joinErr == nil {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if joinErr != nil {
			b.Close()
			return fmt.Errorf("sentinel %d join: %w", i, joinErr)
		}
		go func() {
			defer close(sent.done)
			s.Run(sent.stop, func(err error) { f.clientErr(fmt.Sprintf("sentinel %d", sent.idx), err) })
		}()
		f.sentinels = append(f.sentinels, sent)
	}
	return nil
}

// clientErr classifies a lite's or a sentinel's Run-loop error. Violations:
// a terminal close reason (nothing in these scenarios leaves or kicks), a
// refusal with no close reason, a delta patched against a base the client
// did not acknowledge, and a MOVED naming an address that is no agent of
// this fleet. Retryable closes and transport noise are the weather the
// loop is built for.
func (f *fleet) clientErr(who string, err error) {
	var ce *core.CloseError
	var bare *core.BareStatusError
	switch {
	case errors.As(err, &ce):
		if !ce.Reason.Retryable() {
			f.violate("%s: terminal close %v", who, ce.Reason)
		}
		if ce.Reason == core.CloseMoved && ce.Relocate != "" && !knownAgent(ce.Relocate) {
			f.violate("%s: MOVED relocate to unknown address %q", who, ce.Relocate)
		}
	case errors.As(err, &bare):
		f.violate("%s: bare termination: %v", who, err)
	case errors.Is(err, core.ErrDeltaBase):
		f.violate("%s: %v", who, err)
	}
}

// spawnLites builds and starts the lite fleet. stagger spreads the join
// burst over the given window (zero = flash crowd: everyone dials at
// once).
func (f *fleet) spawnLites(stagger time.Duration) {
	n := f.cfg.N
	f.lites = make([]*lite, n)
	for i := 0; i < n; i++ {
		l := f.newLite(i)
		f.lites[i] = l
		var delay time.Duration
		if stagger > 0 && n > 1 {
			delay = stagger * time.Duration(i) / time.Duration(n)
		}
		go l.run(f, delay)
	}
}

// waitAllSynced blocks until every lite holds content (ts > 0) — the
// joined-and-synced barrier — and records the join phase's wall clock,
// byte, and build costs.
func (f *fleet) waitAllSynced(deadline time.Duration) error {
	start := time.Now()
	limit := start.Add(deadline)
	for {
		synced := 0
		for _, l := range f.lites {
			if l.c.DocTime() > 0 {
				synced++
			}
		}
		if synced == len(f.lites) {
			f.joinWall = time.Since(f.startedAt)
			f.joinBytes = f.liteMeter.total()
			f.joinBuilds = f.agent().ContentBuilds()
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("join barrier: %d/%d lites synced after %v", synced, len(f.lites), deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hostMutate lands one host-side DOM mutation on the current agent's
// browser — the content event every measured round times.
func (f *fleet) hostMutate(val string) error {
	return f.cur.Load().host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-round", val)
		return nil
	})
}

// measuredRound arms the staleness probe one docTime past the agent's
// latest build, lands the mutation, and waits until every lite holds
// content at or past the target. The per-lite latencies become the round's
// staleness distribution and are checked against the profile budgets.
func (f *fleet) measuredRound(name string, mutate func() error, deadline time.Duration) error {
	target := f.agent().LatestDocTime() + 1
	p := newProbe(target, len(f.lites))
	f.probe.Store(p)
	defer f.probe.Store(nil)
	if err := mutate(); err != nil {
		return fmt.Errorf("round %s: mutate: %w", name, err)
	}
	select {
	case <-p.done:
	case <-time.After(deadline):
	}
	reached, unreached := p.latencies()
	if unreached > 0 {
		return fmt.Errorf("round %s: %d/%d lites still stale after %v (target docTime %d)",
			name, unreached, len(f.lites), deadline, target)
	}
	var sum time.Duration
	for _, d := range reached {
		sum += d
	}
	mean := sum / time.Duration(len(reached))
	p95 := reached[len(reached)*95/100]
	max := reached[len(reached)-1]
	f.stats = append(f.stats, RoundStat{
		Name:   name,
		MeanMS: mean.Milliseconds(),
		P95MS:  p95.Milliseconds(),
		MaxMS:  max.Milliseconds(),
	})
	if mean > f.cfg.Profile.MeanStaleness {
		f.violate("round %s: mean staleness %v exceeds %s budget %v",
			name, mean, f.cfg.Profile.Name, f.cfg.Profile.MeanStaleness)
	}
	if max > f.cfg.Profile.MaxStaleness {
		f.violate("round %s: max staleness %v exceeds %s budget %v",
			name, max, f.cfg.Profile.Name, f.cfg.Profile.MaxStaleness)
	}
	return nil
}

// converge is the family's closing audit: every fired action applied
// exactly once, every lite and sentinel caught up to the latest build, and
// every sentinel document byte-identical to a freshly joined reference
// replica.
func (f *fleet) converge(deadline time.Duration) error {
	limit := time.Now().Add(deadline)

	// 1. Drain: every fired key reaches the policy at least once.
	keys := f.firedKeys()
	for {
		missing := 0
		for _, k := range keys {
			if f.policy.count(k) == 0 {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(limit) {
			return fmt.Errorf("converge: %d/%d actions never reached the policy", missing, len(keys))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 2. Exactly-once: no key applied more than once.
	for _, k := range keys {
		if n := f.policy.count(k); n != 1 {
			f.violate("action %q applied %d times, want exactly once", k, n)
		}
	}

	// 3. Timestamp barrier: everyone holds the latest build.
	latest := f.agent().LatestDocTime()
	for {
		behind := 0
		for _, l := range f.lites {
			if l.c.DocTime() < latest {
				behind++
			}
		}
		for _, s := range f.sentinels {
			if s.snip.DocTime() < latest {
				behind++
			}
		}
		if behind == 0 {
			break
		}
		if time.Now().After(limit) {
			return fmt.Errorf("converge: %d participants behind docTime %d after %v", behind, latest, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every participant talks to an agent of this fleet: a followed
	// relocation never leaves a client at an unknown address.
	for _, l := range f.lites {
		if url := l.c.CurrentAgentURL(); !knownAgent(url) {
			f.violate("lite %d talks to unknown agent %q", l.idx, url)
		}
	}
	for _, s := range f.sentinels {
		if url := s.snip.CurrentAgentURL(); !knownAgent(url) {
			f.violate("sentinel %d talks to unknown agent %q", s.idx, url)
		}
	}

	// 4. Byte-identical sentinels vs a freshly joined reference replica.
	ref, err := f.referenceHTML()
	if err != nil {
		return fmt.Errorf("converge: reference join: %w", err)
	}
	for _, s := range f.sentinels {
		html, err := s.docHTML()
		if err != nil {
			return fmt.Errorf("converge: sentinel %d doc: %w", s.idx, err)
		}
		if html != ref {
			return fmt.Errorf("converge: sentinel %d diverged from reference (%d vs %d bytes, first diff at %d)",
				s.idx, len(html), len(ref), firstDiff(html, ref))
		}
	}
	return nil
}

// referenceHTML joins a fresh replica over an unshaped link, takes one
// full sync, and serializes its document — the oracle every sentinel must
// match byte for byte.
func (f *fleet) referenceHTML() (string, error) {
	rb := browser.New("ref.lan", f.net.Dialer("ref.lan"))
	defer rb.Close()
	s := core.NewSnippet(rb, "http://"+f.addr(), "")
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if err = s.Join(); err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		return "", err
	}
	if _, err := s.PollOnce(); err != nil {
		return "", err
	}
	var html string
	err = rb.WithDocument(func(_ string, doc *dom.Document) error {
		html = dom.OuterHTML(doc.Root)
		return nil
	})
	return html, err
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// checkByteBudgets audits the lite fleet's average wire spend against the
// profile budgets, splitting the join phase from the measured rounds.
func (f *fleet) checkByteBudgets() {
	n := int64(len(f.lites))
	if n == 0 {
		return
	}
	perJoin := f.joinBytes / n
	if perJoin > f.cfg.Profile.JoinBytes {
		f.violate("join cost %d bytes/lite exceeds %s budget %d", perJoin, f.cfg.Profile.Name, f.cfg.Profile.JoinBytes)
	}
	rounds := int64(len(f.stats))
	if rounds == 0 {
		return
	}
	budget := f.cfg.Profile.RoundBytes
	if f.roundBudget > 0 {
		budget = f.roundBudget
	}
	perRound := (f.liteMeter.total() - f.joinBytes) / rounds / n
	if perRound > budget {
		f.violate("steady cost %d bytes/lite/round exceeds %s budget %d", perRound, f.cfg.Profile.Name, budget)
	}
}

// stopParticipants ends every lite and sentinel loop and waits them out.
// Closing each one's HTTP client fails the poll the agent has parked, so a
// stopped loop returns at once instead of waiting out the park. One
// deadline bounds the whole wait; a participant still running at it is a
// violation. Later calls do nothing.
func (f *fleet) stopParticipants() {
	f.stopOnce.Do(func() {
		for _, l := range f.lites {
			close(l.stop)
			l.hc.Close()
		}
		for _, s := range f.sentinels {
			close(s.stop)
			s.b.Close()
		}
		expired := make(chan struct{})
		defer time.AfterFunc(15*time.Second, func() { close(expired) }).Stop()
		wait := func(who string, done <-chan struct{}) {
			select {
			case <-done:
			case <-expired:
				select {
				case <-done:
				default:
					f.violate("%s still running at the shutdown deadline", who)
				}
			}
		}
		for _, l := range f.lites {
			wait(fmt.Sprintf("lite %d", l.idx), l.done)
		}
		for _, s := range f.sentinels {
			wait(fmt.Sprintf("sentinel %d", s.idx), s.done)
		}
	})
}

func (f *fleet) close() {
	f.stopParticipants()
	if f.standby != nil {
		f.standby.close()
	}
	f.primary.close()
	f.corpus.Close()
}

// result snapshots the run's measurements.
func (f *fleet) result() *Result {
	res := &Result{
		Family:    f.cfg.Family,
		Profile:   f.cfg.Profile.Name,
		N:         f.cfg.N,
		Sentinels: f.cfg.Sentinels,
		Rounds:    f.cfg.Rounds,
		Seed:      f.cfg.Seed,

		JoinWallMS:  f.joinWall.Milliseconds(),
		TotalWallMS: time.Since(f.startedAt).Milliseconds(),
		RoundStats:  f.stats,

		JoinBuilds:   f.joinBuilds,
		ActionsFired: len(f.firedKeys()),
		Violations:   f.violations(),
	}
	var sumMean, maxMax int64
	for _, rs := range f.stats {
		sumMean += rs.MeanMS
		if rs.MaxMS > maxMax {
			maxMax = rs.MaxMS
		}
	}
	if len(f.stats) > 0 {
		res.MeanStalenessMS = sumMean / int64(len(f.stats))
		res.MaxStalenessMS = maxMax
	}
	if n := int64(len(f.lites)); n > 0 {
		res.JoinBytesPerLite = f.joinBytes / n
		if r := int64(len(f.stats)); r > 0 {
			res.RoundBytesPerLite = (f.liteMeter.total() - f.joinBytes) / r / n
		}
	}
	for _, l := range f.lites {
		st := l.c.Stats()
		res.Polls += st.Polls
		res.ContentPolls += st.ContentPolls
		res.DeltaPolls += st.DeltaPolls
		res.EmptyPolls += st.EmptyPolls
		res.Rejoins += st.Rejoins
		res.Moves += st.Relocates
	}
	ag := f.agent()
	res.ContentBuilds = ag.ContentBuilds()
	res.WakeFanouts = ag.WakeFanouts()
	res.DeltasServed = ag.DeltasServed()
	res.DuplicateActions = ag.DuplicateActions()
	if f.standby != nil && f.cur.Load() != f.primary {
		pa := f.primary.agent
		res.ContentBuilds += pa.ContentBuilds()
		res.WakeFanouts += pa.WakeFanouts()
		res.DeltasServed += pa.DeltasServed()
		res.DuplicateActions += pa.DuplicateActions()
	}
	return res
}
