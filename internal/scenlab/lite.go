package scenlab

import (
	"fmt"
	"math/rand"
	"net"
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

// lite is one DOM-free participant of the fleet: core's protocol client —
// the snippet's own wire state machine, delivery rules, outbox, close-reason
// routing, relocation and backoff — running the docTime document, which
// holds no DOM and reports each docTime it reaches to the staleness probe.
// Its wire client counts bytes into the fleet's lite meter.
type lite struct {
	idx  int
	hc   *httpwire.Client
	c    *core.Client
	stop chan struct{}
	done chan struct{}
}

// newLite configures lite i through the settings every snippet has: the
// fleet's delivery mix (every fourth lite paces at a 200 ms interval unless
// the family parks everyone), delta advertisement on even lites unless the
// family enables it for all, and the sentinels' seeded 10–250 ms retry
// schedule.
func (f *fleet) newLite(i int) *lite {
	host := fmt.Sprintf("lite%d.lan", i)
	hc := httpwire.NewClient(meteredDialer(f.net.Dialer(host), f.liteMeter))
	c := core.NewDocTimeClient(hc, "http://"+f.addr(), func(ts int64) {
		if p := f.probe.Load(); p != nil {
			p.stampIfReached(i, ts)
		}
	})
	c.ClientID = fmt.Sprintf("lite%d", i)
	c.Delivery = core.DeliveryLongPoll
	if !f.allLongPoll && i%4 == 3 {
		c.Delivery = core.DeliveryInterval
	}
	c.DisableDelta = !f.allDelta && i%2 != 0
	c.LongPollWait = f.liteWait
	c.PollInterval = 200 * time.Millisecond
	c.RetryBase = 10 * time.Millisecond
	c.RetryMax = 250 * time.Millisecond
	c.RetryRand = rand.New(rand.NewSource(f.cfg.Seed ^ int64(i)*0x9E3779B9)).Float64
	return &lite{idx: i, hc: hc, c: c, stop: make(chan struct{}), done: make(chan struct{})}
}

// run starts the lite's protocol loop after startDelay — the join stagger —
// and classifies every error it reports.
func (l *lite) run(f *fleet, startDelay time.Duration) {
	defer close(l.done)
	select {
	case <-l.stop:
		return
	case <-time.After(startDelay):
	}
	l.c.Run(l.stop, func(err error) { f.clientErr(fmt.Sprintf("lite %d", l.idx), err) })
}
