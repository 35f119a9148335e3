package experiment

// Delivery-mode ablation: interval polling (the paper's §3.2.3 choice)
// against the hanging-GET long-poll channel, measured over the real stack —
// live agent, wire server, snippet Run loop — rather than the analytic link
// model. Where SweepPollInterval computes the staleness floor of the poll
// model, MeasureDelivery demonstrates it and shows long-poll dropping below
// it: the participant sees a host change after transfer time, not after
// interval/2, while idle request traffic falls from one poll per interval
// to one per max-hang.
//
// The run also measures the upstream direction: a participant fires pointer
// actions and a second (mirror) participant times how long each takes to
// arrive. Interval-mode upstream waits for the sender's next request cycle
// — interval/2 on average — while a long-poll sender writes each action at
// once as a poll pipelined behind its parked one, and a duplex sender as a
// channel frame: both deliver in transfer time.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
	"rcb/internal/sites"
)

// DeliveryResult is one measured delivery-mode run.
type DeliveryResult struct {
	Mode string `json:"mode"` // "interval" or "longpoll"
	// Interval is the snippet's PollInterval (pacing in interval mode,
	// retry backoff in long-poll mode).
	Interval time.Duration `json:"interval_ns"`
	// Wait is the per-request hang requested in long-poll mode (0 for
	// interval mode).
	Wait    time.Duration `json:"wait_ns"`
	Changes int           `json:"changes"`
	// MeanStaleness and MaxStaleness measure host-change-to-participant-
	// applied latency across the changes.
	MeanStaleness time.Duration `json:"mean_staleness_ns"`
	MaxStaleness  time.Duration `json:"max_staleness_ns"`
	// Polls counts every polling request the snippet issued during the
	// run; IdlePolls counts just those issued during the trailing idle
	// window, the keep-alive overhead of the mode.
	Polls      int64         `json:"polls"`
	IdlePolls  int64         `json:"idle_polls"`
	IdleWindow time.Duration `json:"idle_window_ns"`
	// IdleBytes counts bytes in both directions on the measuring
	// participant's link during the idle window — the wire cost of keeping
	// the session alive: request/response headers per interval poll, a
	// hanging request per max-hang, or a ping/pong frame pair per channel
	// keep-alive.
	IdleBytes int64 `json:"idle_bytes"`
	// Actions counts measured actions and Mean/MaxActionStaleness the
	// action-fired-to-mirror-applied latency.
	Actions             int           `json:"actions"`
	MeanActionStaleness time.Duration `json:"mean_action_staleness_ns"`
	MaxActionStaleness  time.Duration `json:"max_action_staleness_ns"`
	// Builds counts Figure 3 pipeline runs — with single-flight delivery
	// this stays at one per change regardless of participant count.
	Builds   int64         `json:"builds"`
	Duration time.Duration `json:"duration_ns"`
}

// DeliveryOptions shapes one MeasureDelivery run.
type DeliveryOptions struct {
	// Interval is the snippet poll interval (interval mode pacing).
	Interval time.Duration
	// Wait is the long-poll hang per request (long-poll mode only).
	Wait time.Duration
	// Changes is how many host document changes to measure.
	Changes int
	// Gap is the settle time before each change.
	Gap time.Duration
	// Idle, when positive, holds the session idle after the last change
	// and counts the polls issued in that window.
	Idle time.Duration
	// Actions, when positive, adds the upstream phase: a mirror participant
	// joins and this many pointer actions are timed from fire to mirror
	// apply.
	Actions int
}

// MeasureDelivery runs one co-browsing session over the virtual network in
// the given delivery mode, applies a series of host document changes, and
// measures how stale each change was by the time the participant applied
// it, plus the request traffic the mode cost.
func MeasureDelivery(spec sites.SiteSpec, mode core.DeliveryMode, opt DeliveryOptions) (*DeliveryResult, error) {
	corpus, err := sites.NewCorpus()
	if err != nil {
		return nil, err
	}
	defer corpus.Close()
	host := browser.New("host.lan", corpus.Network.Dialer("host.lan"))
	defer host.Close()
	agent := core.NewAgent(host, "host.lan:3000")
	defer agent.Close()
	l, err := corpus.Network.Listen("host.lan:3000")
	if err != nil {
		return nil, err
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	defer server.Close()
	if _, err := host.Navigate("http://" + spec.Host() + "/"); err != nil {
		return nil, err
	}

	// The measuring participant's dialer is wrapped so every connection it
	// opens tallies wire bytes; the idle window below reads the delta.
	var cmu sync.Mutex
	var conns []*netsim.CountingConn
	dial := corpus.Network.Dialer("alice.lan")
	pb := browser.New("alice.lan", func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		cc := netsim.NewCountingConn(c)
		cmu.Lock()
		conns = append(conns, cc)
		cmu.Unlock()
		return cc, nil
	})
	defer pb.Close()
	wireBytes := func() int64 {
		cmu.Lock()
		defer cmu.Unlock()
		var total int64
		for _, cc := range conns {
			in, out := cc.Totals()
			total += in + out
		}
		return total
	}
	snip := core.NewSnippet(pb, "http://host.lan:3000", "")
	snip.FetchObjects = false
	snip.PollInterval = opt.Interval
	snip.Delivery = mode
	snip.LongPollWait = opt.Wait
	if err := snip.Join(); err != nil {
		return nil, err
	}

	// The upstream phase times actions against a second participant: the
	// mirror applies the pointer action and stamps its arrival.
	var mirror *core.Snippet
	var amu sync.Mutex
	arrivals := make(map[int]time.Time)
	parkTarget := 1
	if opt.Actions > 0 {
		mb := browser.New("mirror.lan", corpus.Network.Dialer("mirror.lan"))
		defer mb.Close()
		mirror = core.NewSnippet(mb, "http://host.lan:3000", "")
		mirror.FetchObjects = false
		mirror.PollInterval = opt.Interval
		mirror.Delivery = mode
		mirror.LongPollWait = opt.Wait
		mirror.OnUserAction = func(a core.Action) {
			if a.Kind == core.ActionMouseMove {
				amu.Lock()
				if _, ok := arrivals[a.X]; !ok {
					arrivals[a.X] = time.Now()
				}
				amu.Unlock()
			}
		}
		if err := mirror.Join(); err != nil {
			return nil, err
		}
		if mode != core.DeliveryInterval {
			parkTarget = 2
		}
	}

	stop := make(chan struct{})
	defer close(stop)
	go snip.Run(stop, nil)
	if mirror != nil {
		go mirror.Run(stop, nil)
	}

	label := "interval"
	switch mode {
	case core.DeliveryLongPoll:
		label = "longpoll"
	case core.DeliveryDuplex:
		label = "duplex"
	}
	res := &DeliveryResult{
		Mode:       label,
		Interval:   opt.Interval,
		Wait:       opt.Wait,
		Changes:    opt.Changes,
		IdleWindow: opt.Idle,
		Actions:    opt.Actions,
	}
	// settle waits for every long-poll participant to re-park (so the next
	// event exercises the push path), waits for every channel participant's
	// upgrade to attach (so the next event exercises the frame fan-out), or
	// phase-shifts an interval-mode stimulus so the series samples the whole
	// poll cycle uniformly.
	settle := func(i, total int) error {
		switch mode {
		case core.DeliveryLongPoll:
			if err := waitCond(30*time.Second, func() bool { return agent.ParkedPolls() == parkTarget }); err != nil {
				return err
			}
			time.Sleep(opt.Gap)
			return nil
		case core.DeliveryDuplex:
			if err := waitCond(30*time.Second, func() bool { return agent.ChannelsOpen() == int64(parkTarget) }); err != nil {
				return err
			}
			time.Sleep(opt.Gap)
			return nil
		}
		time.Sleep(opt.Gap + time.Duration(i)*opt.Interval/time.Duration(max(total, 1)))
		return nil
	}
	start := time.Now()
	for i := 0; i < opt.Changes; i++ {
		if err := settle(i, opt.Changes); err != nil {
			return nil, fmt.Errorf("experiment: change %d: %w", i, err)
		}
		before := snip.Stats().ContentPolls
		t0 := time.Now()
		if err := bumpHostDoc(host, i); err != nil {
			return nil, err
		}
		if err := waitCond(30*time.Second, func() bool { return snip.Stats().ContentPolls > before }); err != nil {
			return nil, fmt.Errorf("experiment: change %d never reached the participant: %w", i, err)
		}
		staleness := time.Since(t0)
		res.MeanStaleness += staleness
		if staleness > res.MaxStaleness {
			res.MaxStaleness = staleness
		}
	}
	if opt.Changes > 0 {
		res.MeanStaleness /= time.Duration(opt.Changes)
	}
	for i := 0; i < opt.Actions; i++ {
		if err := settle(i, opt.Actions); err != nil {
			return nil, fmt.Errorf("experiment: action %d: %w", i, err)
		}
		x := 1<<20 + i // out of the way of any page coordinate
		t0 := time.Now()
		snip.PointerMove(x, 0)
		err := waitCond(30*time.Second, func() bool {
			amu.Lock()
			_, ok := arrivals[x]
			amu.Unlock()
			return ok
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: action %d never reached the mirror: %w", i, err)
		}
		amu.Lock()
		staleness := arrivals[x].Sub(t0)
		amu.Unlock()
		res.MeanActionStaleness += staleness
		if staleness > res.MaxActionStaleness {
			res.MaxActionStaleness = staleness
		}
	}
	if opt.Actions > 0 {
		res.MeanActionStaleness /= time.Duration(opt.Actions)
	}
	if opt.Idle > 0 {
		idleStart := snip.Stats().Polls
		byteStart := wireBytes()
		time.Sleep(opt.Idle)
		res.IdlePolls = snip.Stats().Polls - idleStart
		res.IdleBytes = wireBytes() - byteStart
	}
	res.Duration = time.Since(start)
	res.Polls = snip.Stats().Polls
	res.Builds = agent.ContentBuilds()
	return res, nil
}

// bumpHostDoc applies the canonical ablation mutation: one body attribute
// write that advances the host document version.
func bumpHostDoc(host *browser.Browser, tick int) error {
	return host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-delivery-tick", fmt.Sprint(tick))
		return nil
	})
}

// waitCond polls cond every 200µs until it holds or the deadline passes.
func waitCond(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
