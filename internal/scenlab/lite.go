package scenlab

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/core"
	"rcb/internal/httpwire"
)

// meter counts wire bytes in both directions across every connection its
// dialer opens.
type meter struct {
	up, down atomic.Int64
}

func (m *meter) total() int64 { return m.up.Load() + m.down.Load() }

type meteredConn struct {
	net.Conn
	m *meter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.down.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.up.Add(int64(n))
	return n, err
}

// meteredDialer wraps a dialer so every connection it opens reports into m.
func meteredDialer(dial func(addr string) (net.Conn, error), m *meter) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &meteredConn{Conn: c, m: m}, nil
	}
}

// liteMode selects the delivery pattern a lite drives.
type liteMode int

const (
	liteLongPoll liteMode = iota // hanging poll, parks server-side
	liteInterval                 // paper-style fixed-interval polling
)

// lite is the scripted wire-level participant: the real protocol — join
// cookie, ts acknowledgment, optional delta advertisement, long-poll
// parking, piggybacked replay-stamped actions, close-reason handling with
// MOVED relocation and retryable rejoin — without a DOM. It tracks only
// the document timestamp it last received content for, which is the one
// fact the staleness probe and the convergence barrier need.
type lite struct {
	f        *fleet
	idx      int
	host     string
	client   *httpwire.Client
	mode     liteMode
	delta    bool
	wait     time.Duration // long-poll hang request
	interval time.Duration // pacing in interval mode
	rng      *rand.Rand    // owned by the run goroutine

	// ts is the docTime of the last content this lite holds; pid the
	// current participant identity ("" = must (re)join). pid is written by
	// the run goroutine and read by families injecting disconnects.
	ts  atomic.Int64
	pid atomic.Value // string

	// out is the upstream, the same outbox type the snippet sends from:
	// stamped actions ride the next poll, are dropped on its 200, and are
	// rewound on any failure.
	mu  sync.Mutex
	out core.Outbox

	polls, contentPolls, deltaPolls, emptyPolls atomic.Int64
	rejoins, moves                              atomic.Int64
	joinedOnce                                  atomic.Bool

	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool
}

func (l *lite) currentPID() string {
	if v := l.pid.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// sleep pauses for d (with half-to-full jitter when jittered) unless the
// lite is stopped first.
func (l *lite) sleep(d time.Duration, jittered bool) bool {
	if d <= 0 {
		return !l.stopped.Load()
	}
	if jittered {
		d = d/2 + time.Duration(l.rng.Int63n(int64(d/2)+1))
	}
	select {
	case <-l.stop:
		return false
	case <-time.After(d):
		return true
	}
}

const (
	liteRetryBase = 10 * time.Millisecond
	liteRetryMax  = 250 * time.Millisecond
)

// run is the lite's whole life: join (retrying with jittered backoff),
// then poll until stopped, rejoining whenever the agent ends the session
// with a retryable reason or relocates it.
func (l *lite) run(startDelay time.Duration) {
	defer close(l.done)
	if !l.sleep(startDelay, false) {
		return
	}
	backoff := liteRetryBase
	for !l.stopped.Load() {
		select {
		case <-l.stop:
			return
		default:
		}
		if l.currentPID() == "" {
			if err := l.join(); err != nil {
				if !l.sleep(backoff, true) {
					return
				}
				backoff = min(backoff*2, liteRetryMax)
				continue
			}
			backoff = liteRetryBase
			continue
		}
		delay, err := l.pollOnce()
		if err != nil {
			if !l.sleep(backoff, true) {
				return
			}
			backoff = min(backoff*2, liteRetryMax)
			continue
		}
		backoff = liteRetryBase
		if !l.sleep(delay, false) {
			return
		}
	}
}

// join performs the Figure 3 entry: GET the session page, adopt the
// rcbpid identity cookie, and reset the acknowledged timestamp so the
// first poll takes a full sync.
func (l *lite) join() error {
	req := httpwire.NewRequest("GET", "/")
	resp, err := l.client.DoTimeout(l.f.addr(), req, 10*time.Second)
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 {
		if term := l.handleRefusal("join", resp); term {
			return nil
		}
		return fmt.Errorf("join refused: %d", resp.StatusCode)
	}
	pid := pidFromSetCookie(resp.Header.Get("Set-Cookie"))
	if pid == "" {
		l.f.violate("lite %d: join response carries no rcbpid cookie", l.idx)
		return fmt.Errorf("no pid")
	}
	if !l.joinedOnce.CompareAndSwap(false, true) {
		l.rejoins.Add(1)
	}
	l.pid.Store(pid)
	l.ts.Store(0)
	return nil
}

// pollOnce performs one /poll exchange and returns how long the caller
// should idle before the next one (interval pacing or a server-assigned
// retry hint).
func (l *lite) pollOnce() (time.Duration, error) {
	l.mu.Lock()
	acts := l.out.Take()
	l.mu.Unlock()
	ts := l.ts.Load()
	fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(ts, 10)}}
	if l.delta && ts > 0 {
		fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
	}
	if len(acts) > 0 {
		fields = append(fields, httpwire.FormField{Name: "actions", Value: core.EncodeActions(acts)})
	}
	wait := time.Duration(0)
	if l.mode == liteLongPoll && len(acts) == 0 {
		// An action-carrying request never asks to park, mirroring the
		// snippet: a parked exchange that later dies would replay actions
		// the host already applied.
		wait = l.wait
		fields = append(fields, httpwire.FormField{Name: "wait", Value: strconv.FormatInt(wait.Milliseconds(), 10)})
	}
	req := httpwire.NewRequest("POST", "/poll")
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Cookie", "rcbpid="+l.currentPID())
	req.Body = []byte(httpwire.EncodeForm(fields))
	resp, err := l.client.DoTimeout(l.f.addr(), req, wait+10*time.Second)
	l.mu.Lock()
	if err == nil && resp.StatusCode == 200 {
		l.out.AckBatch(acts)
	} else {
		// A transport failure or refused poll never loses interaction: the
		// actions go out again, stamps intact, and the agent's replay
		// filter absorbs any duplicate.
		l.out.Rewind()
	}
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	l.polls.Add(1)
	if resp.StatusCode != 200 {
		if term := l.handleRefusal("poll", resp); term {
			return 0, nil
		}
		return core.ParseRetryAfter(resp.Header.Get(core.RetryAfterHeader)), fmt.Errorf("poll returned %d", resp.StatusCode)
	}
	if len(resp.Body) == 0 {
		l.emptyPolls.Add(1)
		l.stampProbe()
		// Only a marked answer paces a long-poll, as in the snippet: an
		// unmarked empty one is a timeout or a spurious wake, however fast
		// it came, and the next poll parks at once.
		delay := core.ParseRetryAfter(resp.Header.Get(core.RetryAfterHeader))
		if core.ParseCloseReason(resp.Header.Get(core.CloseReasonHeader)) == core.CloseAgentClosing {
			// The agent completed the park deliberately while shutting
			// down; pace instead of re-parking at network speed.
			if delay < 100*time.Millisecond {
				delay = 100 * time.Millisecond
			}
		}
		if l.mode == liteInterval && delay < l.interval {
			delay = l.interval
		}
		return delay, nil
	}
	if core.MessageIsDelta(resp.Body) {
		l.deltaPolls.Add(1)
		// With the multi-base delta ring, whatever base the agent picked
		// must be the one this poll advertised — a patch against any other
		// docTime would corrupt a real participant's DOM silently, since
		// the DOM-less driver can't detect divergence.
		if b, ok := tagInt(resp.Body, baseDocTimeOpen); !ok || b != ts {
			l.f.violate("lite %d: delta patched base %d, advertised ts %d", l.idx, b, ts)
		}
	} else {
		l.contentPolls.Add(1)
	}
	if v, ok := tagInt(resp.Body, docTimeOpen); ok && v > 0 {
		// Adopt the message's timestamp verbatim: actions-only messages
		// echo our own ts back, content messages advance it, and a
		// post-handover resync is authoritative even if it goes backwards.
		l.ts.Store(v)
	}
	l.stampProbe()
	if l.mode == liteInterval {
		return l.interval, nil
	}
	return 0, nil
}

// handleRefusal classifies a non-200 answer. A refusal without a close
// reason is a protocol violation (bare termination); MOVED relocates the
// lite; any other retryable reason drops the identity so the loop
// rejoins; a terminal reason stops the lite and is a violation in these
// scenarios (nothing here leaves or kicks). Returns true when the lite
// should stop.
func (l *lite) handleRefusal(op string, resp *httpwire.Response) (terminal bool) {
	reason := core.ParseCloseReason(resp.Header.Get(core.CloseReasonHeader))
	switch {
	case reason == core.CloseNone:
		l.f.violate("lite %d: %s returned bare %d with no %s header",
			l.idx, op, resp.StatusCode, core.CloseReasonHeader)
	case reason == core.CloseMoved:
		if to := resp.Header.Get(core.RelocateHeader); to != "" {
			l.f.noteRelocate(to)
		}
		l.moves.Add(1)
		l.pid.Store("")
	case reason.Retryable():
		l.pid.Store("")
	default:
		l.f.violate("lite %d: %s terminated with %v — nothing in this scenario leaves or kicks",
			l.idx, op, reason)
		l.stopped.Store(true)
		return true
	}
	return false
}

// stampProbe reports this lite's current timestamp to the armed staleness
// probe, if any.
func (l *lite) stampProbe() {
	if p := l.f.probe.Load(); p != nil {
		p.stampIfReached(l.idx, l.ts.Load())
	}
}

// pidFromSetCookie extracts the rcbpid value from a Set-Cookie header.
func pidFromSetCookie(cookie string) string {
	for _, part := range strings.Split(cookie, ";") {
		part = strings.TrimSpace(part)
		if v, ok := strings.CutPrefix(part, "rcbpid="); ok {
			return v
		}
	}
	return ""
}

var (
	docTimeOpen     = []byte("<docTime>")
	baseDocTimeOpen = []byte("<baseDocTime>")
)

// tagInt scans a poll response body for the decimal value of the first
// element opened by open. Both the full newContent and the deltaContent
// message carry a <docTime>, which is what lets a DOM-less driver ride the
// delta path; a deltaContent also names its <baseDocTime>, the honesty
// check that multi-base ring serving patched against exactly the docTime
// this lite advertised.
func tagInt(body, open []byte) (int64, bool) {
	i := bytes.Index(body, open)
	if i < 0 {
		return 0, false
	}
	var v int64
	j := i + len(open)
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		v = v*10 + int64(body[j]-'0')
	}
	if j == i+len(open) {
		return 0, false
	}
	return v, true
}
