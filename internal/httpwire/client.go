package httpwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// Dialer opens a connection to a named host. The netsim package supplies
// dialers that route through simulated links; cmd tools supply net.Dial.
type Dialer func(addr string) (net.Conn, error)

// Client issues HTTP requests over persistent connections, one live
// connection per destination address. It mirrors a browser's keep-alive
// behaviour closely enough for RCB's traffic patterns (repeated polls to one
// host, object fetches to a handful of origins).
//
// Requests on one connection are pipelined (HTTP/1.1): Send writes a
// request at once, whatever is still unanswered on the connection, and its
// Exchange reads the response in write order. A request queued behind one
// the server parks — a hanging-GET long-poll — is answered only after it,
// so a caller that must not wait out a hang needs a server that ends the
// park when the next request arrives, as RCB-Agent does for a
// participant's next poll. Do is Send followed by Read.
type Client struct {
	Dial Dialer

	// ReadTimeout, when positive, bounds how long Do waits for a response
	// after writing each request. Zero means wait forever — the right
	// default for ordinary transfers over shaped links. Long-poll callers
	// that park requests server-side should prefer the per-call bound of
	// DoTimeout so only the hanging request carries a deadline.
	ReadTimeout time.Duration

	mu     sync.Mutex
	conns  map[string]*clientConn // keyed by address
	closed bool
}

// ErrClientClosed is returned by every request issued after Close.
var ErrClientClosed = errors.New("httpwire: client closed")

// clientConn is one pooled connection. Requests go out under wmu in the
// order they join unread; whoever needs a response reads, under rmu, every
// response ahead of it too, leaving each on its Exchange.
type clientConn struct {
	conn     net.Conn
	br       *bufio.Reader
	wmu, rmu sync.Mutex

	mu     sync.Mutex  // guards unread, err and the results of unread exchanges
	unread []*Exchange // written, response not read yet, in write order
	err    error       // the failure that ended the connection
}

// Exchange is one request written on a pooled connection; Read returns its
// response.
type Exchange struct {
	c     *Client
	addr  string
	req   *Request
	cc    *clientConn
	retry bool // sent on a reused connection: a transport failure resends once

	done bool // resp or err is set (guarded by cc.mu)
	resp *Response
	err  error
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
	x, err := c.Send(addr, req)
	if err != nil {
		return nil, err
	}
	return x.Read(timeout)
}

// Send writes req on addr's pooled connection now, behind every request
// already written there, and returns the exchange its response is read
// from. A failed dial or a closed client is reported here; a failed write
// surfaces from Read.
func (c *Client) Send(addr string, req *Request) (*Exchange, error) {
	cc, cached, err := c.getConn(addr)
	if err != nil {
		return nil, err
	}
	x := &Exchange{c: c, addr: addr, req: req, cc: cc, retry: cached}
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.mu.Lock()
	cc.unread = append(cc.unread, x)
	err = cc.err
	cc.mu.Unlock()
	if err == nil {
		err = WriteRequest(cc.conn, req)
	}
	if err != nil {
		cc.fail(err)
	}
	return x, nil
}

// Read returns the exchange's response, reading every response written
// ahead of it on the connection first; those wait on their own exchanges.
// timeout is as for DoTimeout and bounds the whole read. A transport
// failure drops the connection; on a reused connection, a failure that is
// not a timeout resends the request once on a fresh connection (it may
// have raced the server's keep-alive close).
func (x *Exchange) Read(timeout time.Duration) (*Response, error) {
	if timeout <= 0 {
		timeout = x.c.ReadTimeout
	}
	resp, err := x.cc.readThrough(x, timeout)
	if err == nil {
		if resp.WantsClose() {
			x.c.dropConn(x.addr, x.cc)
		}
		return resp, nil
	}
	x.c.dropConn(x.addr, x.cc)
	var ne net.Error
	if x.retry && !(errors.As(err, &ne) && ne.Timeout()) {
		y, err := x.c.Send(x.addr, x.req)
		if err != nil {
			return nil, err
		}
		y.retry = false
		return y.Read(timeout)
	}
	return nil, fmt.Errorf("httpwire: %s %s to %s: %w", x.req.Method, x.req.Target, x.addr, err)
}

// Get issues a GET for target against addr.
func (c *Client) Get(addr, target string) (*Response, error) {
	return c.Do(addr, NewRequest("GET", target))
}

// Close closes every pooled connection — an exchange blocked on one fails
// at once — and is final: later requests fail with ErrClientClosed instead
// of dialing.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for addr, cc := range c.conns {
		cc.conn.Close()
		delete(c.conns, addr)
	}
}

// getConn returns the pooled connection for addr, dialing when none is
// cached.
func (c *Client) getConn(addr string) (cc *clientConn, cached bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if c.conns == nil {
		c.conns = make(map[string]*clientConn)
	}
	if cc := c.conns[addr]; cc != nil {
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
	// it may already carry an exchange in flight, so closing it here would
	// kill a healthy request. Our fresh dial is the one nobody is using yet —
	// close it and join the winner.
	if old := c.conns[addr]; old != nil {
		c.mu.Unlock()
		conn.Close()
		return old, true, nil
	}
	c.conns[addr] = cc
	c.mu.Unlock()
	return cc, false, nil
}

func (c *Client) dropConn(addr string, cc *clientConn) {
	c.mu.Lock()
	if c.conns[addr] == cc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	cc.conn.Close()
}

// readThrough reads responses off the connection, in write order, until
// x's has been read, and returns it. A positive timeout arms a read
// deadline for this call only; it is cleared afterwards so the pooled
// connection stays reusable.
func (cc *clientConn) readThrough(x *Exchange, timeout time.Duration) (*Response, error) {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	if timeout > 0 {
		if err := cc.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			cc.fail(err)
		}
		defer cc.conn.SetReadDeadline(time.Time{})
	}
	for {
		cc.mu.Lock()
		if x.done {
			cc.mu.Unlock()
			return x.resp, x.err
		}
		y := cc.unread[0]
		cc.mu.Unlock()
		resp, err := ReadResponse(cc.br)
		if err != nil {
			cc.fail(err)
			continue
		}
		cc.mu.Lock()
		cc.unread = slices.Delete(cc.unread, 0, 1)
		y.done, y.resp = true, resp
		cc.mu.Unlock()
	}
}

// fail ends the connection: every exchange still waiting for a response
// gets err, and later writes are refused with it.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err == nil {
		cc.err = err
	}
	for _, y := range cc.unread {
		y.done, y.err = true, cc.err
	}
	clear(cc.unread)
	cc.unread = cc.unread[:0]
}
