package httpwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Dialer opens a connection to a named host. The netsim package supplies
// dialers that route through simulated links; cmd tools supply net.Dial.
type Dialer func(addr string) (net.Conn, error)

// Client issues HTTP requests over persistent connections, one live
// connection per destination address and lane. It mirrors a browser's
// keep-alive behaviour closely enough for RCB's traffic patterns (repeated
// polls to one host, object fetches to a handful of origins).
//
// Exchanges on one connection are strictly serialized (HTTP/1.1 without
// pipelining), so a request the server parks — a hanging-GET long-poll —
// holds its connection for the whole hang and every request queued behind it
// waits it out. Callers that must overtake a parked exchange (RCB's
// fire-and-forget action upstream) use DoLane with a dedicated lane name: a
// lane is an independent persistent connection to the same address, so its
// exchanges interleave freely with the default lane's.
type Client struct {
	Dial Dialer

	// ReadTimeout, when positive, bounds how long Do waits for a response
	// after writing each request. Zero means wait forever — the right
	// default for ordinary transfers over shaped links. Long-poll callers
	// that park requests server-side should prefer the per-call bound of
	// DoTimeout so only the hanging request carries a deadline.
	ReadTimeout time.Duration

	mu     sync.Mutex
	conns  map[string]*clientConn // keyed by connKey(addr, lane)
	closed bool
}

// ErrClientClosed is returned by every request issued after Close.
var ErrClientClosed = errors.New("httpwire: client closed")

type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	mu   sync.Mutex
}

// NewClient returns a client using the given dialer.
func NewClient(dial Dialer) *Client {
	return &Client{Dial: dial, conns: make(map[string]*clientConn)}
}

// Do sends req to addr and returns the response. The connection is reused
// across calls; on transport error the cached connection is discarded and
// the request retried once on a fresh connection (a request may race a
// server-side keep-alive close).
func (c *Client) Do(addr string, req *Request) (*Response, error) {
	return c.DoTimeout(addr, req, 0)
}

// DoTimeout is Do with a per-call response read deadline — the safety net a
// long-poll client needs so a request the server parked (hanging GET) cannot
// outlive the agreed maximum hang when the server dies mid-park. timeout <= 0
// falls back to Client.ReadTimeout (no deadline when that is zero too). A
// deadline expiry is returned as a net.Error with Timeout() == true and is
// never retried (retrying would double the hang).
func (c *Client) DoTimeout(addr string, req *Request, timeout time.Duration) (*Response, error) {
	return c.DoLane(addr, "", req, timeout)
}

// connKey maps an (addr, lane) pair onto the connection-pool key. The
// default lane keys on the bare address, so lane-unaware callers share its
// connection; '\x00' cannot occur in an address, so named lanes never
// collide with addresses.
func connKey(addr, lane string) string {
	if lane == "" {
		return addr
	}
	return addr + "\x00" + lane
}

// DoLane is DoTimeout on a named connection lane: the client keeps one
// persistent connection per (addr, lane) pair, and exchanges on different
// lanes never queue behind each other on one socket. Do/DoTimeout use the
// default lane (""). RCB's snippet puts its fire-and-forget action POSTs on
// their own lane because the default lane's current exchange may be a poll
// the agent parked for seconds (hanging GET) — an upstream action must ride
// a concurrent second connection, not wait out the hang.
func (c *Client) DoLane(addr, lane string, req *Request, timeout time.Duration) (*Response, error) {
	if timeout <= 0 {
		timeout = c.ReadTimeout
	}
	key := connKey(addr, lane)
	for attempt := 0; ; attempt++ {
		cc, cached, err := c.getConn(addr, key)
		if err != nil {
			return nil, err
		}
		resp, err := cc.roundTrip(req, timeout)
		if err != nil {
			c.dropConn(key, cc)
			var ne net.Error
			timedOut := errors.As(err, &ne) && ne.Timeout()
			if cached && attempt == 0 && !timedOut {
				continue // stale pooled connection; retry once
			}
			return nil, fmt.Errorf("httpwire: %s %s to %s: %w", req.Method, req.Target, addr, err)
		}
		if resp.WantsClose() {
			c.dropConn(key, cc)
		}
		return resp, nil
	}
}

// Get issues a GET for target against addr.
func (c *Client) Get(addr, target string) (*Response, error) {
	return c.Do(addr, NewRequest("GET", target))
}

// Post issues a POST with the given content type and body.
func (c *Client) Post(addr, target, ctype string, body []byte) (*Response, error) {
	req := NewRequest("POST", target)
	req.Header.Set("Content-Type", ctype)
	req.Body = body
	return c.Do(addr, req)
}

// Close closes every pooled connection, across all lanes — an exchange
// blocked on one fails at once — and is final: later requests fail with
// ErrClientClosed instead of dialing.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for key, cc := range c.conns {
		cc.conn.Close()
		delete(c.conns, key)
	}
}

// getConn returns the pooled connection for key, dialing addr when none is
// cached (a lane's connection dials the same address as the default one).
func (c *Client) getConn(addr, key string) (cc *clientConn, cached bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if c.conns == nil {
		c.conns = make(map[string]*clientConn)
	}
	if cc := c.conns[key]; cc != nil {
		c.mu.Unlock()
		return cc, true, nil
	}
	c.mu.Unlock()

	conn, err := c.Dial(addr)
	if err != nil {
		return nil, false, fmt.Errorf("httpwire: dial %s: %w", addr, err)
	}
	cc = &clientConn{conn: conn, br: bufio.NewReaderSize(conn, 8<<10)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, false, ErrClientClosed
	}
	// Another goroutine may have raced a connection in. The pooled one wins:
	// it may already be mid-exchange (roundTrip holds only the per-conn
	// mutex, not c.mu), so closing it here would kill a healthy in-flight
	// request. Our fresh dial is the one nobody is using yet — close it and
	// join the winner.
	if old := c.conns[key]; old != nil {
		c.mu.Unlock()
		conn.Close()
		return old, true, nil
	}
	c.conns[key] = cc
	c.mu.Unlock()
	return cc, false, nil
}

func (c *Client) dropConn(key string, cc *clientConn) {
	c.mu.Lock()
	if c.conns[key] == cc {
		delete(c.conns, key)
	}
	c.mu.Unlock()
	cc.conn.Close()
}

// roundTrip performs one serialized request/response exchange. The per-conn
// mutex keeps concurrent callers from interleaving on the same socket. A
// positive readTimeout arms a read deadline for this exchange only; it is
// cleared afterwards so the pooled connection stays reusable.
func (cc *clientConn) roundTrip(req *Request, readTimeout time.Duration) (*Response, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := WriteRequest(cc.conn, req); err != nil {
		return nil, err
	}
	if readTimeout > 0 {
		if err := cc.conn.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
			return nil, err
		}
		defer cc.conn.SetReadDeadline(time.Time{})
	}
	return ReadResponse(cc.br)
}
