package core

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"rcb/internal/httpwire"
)

// seqHeader tags each answer with the index of the request it answers.
const seqHeader = "X-Fuzz-Seq"

// orderCheck wraps the agent for FuzzServeConn: it numbers requests in the
// order the server hands them over, tags every answer with that number, and
// records a request handed over while two earlier ones are unanswered.
type orderCheck struct {
	a *Agent

	mu      sync.Mutex
	closing []bool // per handed-over request: it asked to close the connection
	open    int
	tooDeep bool
}

func (o *orderCheck) ServeWire(req *httpwire.Request) *httpwire.Response {
	return o.a.ServeWire(req)
}

func (o *orderCheck) ServeWireAsync(req *httpwire.Request, respond func(*httpwire.Response)) {
	o.mu.Lock()
	seq := len(o.closing)
	o.closing = append(o.closing, req.WantsClose())
	if o.open >= 2 {
		o.tooDeep = true
	}
	o.open++
	o.mu.Unlock()
	var once sync.Once
	o.a.ServeWireAsync(req, func(r *httpwire.Response) {
		once.Do(func() {
			o.mu.Lock()
			o.open--
			o.mu.Unlock()
			tagged := *r // the agent's responses may be shared: tag a copy
			tagged.Header = maps.Clone(r.Header)
			tagged.Header.Set(seqHeader, strconv.Itoa(seq))
			respond(&tagged)
		})
	})
}

// oneConnListener hands out a single connection, then blocks until closed.
type oneConnListener struct {
	conn chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// streamConn is the server's side of a FuzzServeConn connection: reads
// return the fuzzed stream and then io.EOF, writes collect the answers, and
// closed is closed when the server closes the connection. Writes after that
// fail, so the collected answers are final once closed is.
type streamConn struct {
	mu     sync.Mutex
	in     *bytes.Reader
	out    bytes.Buffer
	closed chan struct{}
}

func newStreamConn(stream []byte) *streamConn {
	return &streamConn{in: bytes.NewReader(stream), closed: make(chan struct{})}
}

func (c *streamConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.Read(p)
}

func (c *streamConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	return c.out.Write(p)
}

func (c *streamConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *streamConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *streamConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *streamConn) SetDeadline(time.Time) error      { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }

// The placeholders a FuzzServeConn stream may use: fuzzPID and fuzzPeer are
// replaced by two joined participants' ids, fuzzTS by the docTime they
// hold, zero-padded to the placeholder's width so Content-Length stays
// right and polls can park.
const (
	fuzzPID  = "$PID"
	fuzzPeer = "$PEER"
	fuzzTS   = "$TS_________________"
)

// FuzzServeConn feeds an arbitrary byte stream — typically several
// pipelined requests — into httpwire.Server's connection loop with the
// agent as handler and a 2 ms poll cap. The stream ends in io.EOF, so a run
// lasts as long as the server's own work. Whatever arrives, the server must
// not panic, must answer in request order, must never hand the agent a
// request while two earlier ones are unanswered (it reads at most one
// request ahead of a parked poll), and must answer every request it handed
// over before it closes the connection — except behind an upgrade or an
// answer that closes the connection.
func FuzzServeConn(f *testing.F) {
	reqAs := func(pid, method, target, body string) string {
		return fmt.Sprintf("%s %s HTTP/1.1\r\nCookie: rcbpid=%s\r\nContent-Length: %d\r\n\r\n%s",
			method, target, pid, len(body), body)
	}
	req := func(method, target, body string) string { return reqAs(fuzzPID, method, target, body) }
	act := httpwire.EncodeForm([]httpwire.FormField{{Name: "actions",
		Value: EncodeActions([]Action{{Kind: ActionMouseMove, X: 1, Y: 2, CID: "c", CSeq: 1}})}})
	park := req("POST", "/poll", "ts="+fuzzTS+"&delta=1&wait=1000")
	f.Add([]byte(park + req("POST", "/poll", "ts="+fuzzTS+"&"+act)))
	f.Add([]byte(park + park + park))
	f.Add([]byte(park + reqAs(fuzzPeer, "POST", "/poll", "ts="+fuzzTS+"&wait=1000") + park))
	f.Add([]byte(req("GET", "/", "") + req("POST", "/poll", "ts=0") + park + req("GET", "/i.png", "")))
	f.Add([]byte(park + req("POST", "/action", act) + req("POST", "/poll", "ts=0")))
	f.Add([]byte(park + req("POST", "/channel", "ts=0") + "\x01\x00\x00\x00\x00\x00"))
	f.Add([]byte(park + "GET / HTTP/1.1\r\nConnection: close\r\n\r\n" + park))
	f.Add([]byte(park + "NOT A REQUEST\r\n\r\n"))
	f.Add([]byte(park + "POST /poll HTTP/1.1\r\nContent-Length: 33554432\r\n\r\nts="))

	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 1<<14 {
			t.Skip()
		}
		a := offlineAgent(t)
		pid, peer := wireJoin(t, a), wireJoin(t, a)
		a.ServeWire(pollRequest(pid, "ts=0"))
		stream = bytes.ReplaceAll(stream, []byte(fuzzPID), []byte(pid))
		stream = bytes.ReplaceAll(stream, []byte(fuzzPeer), []byte(peer))
		stream = bytes.ReplaceAll(stream, []byte(fuzzTS), fmt.Appendf(nil, "%020d", a.LatestDocTime()))

		check := &orderCheck{a: a}
		srv := &httpwire.Server{Handler: check}
		l := &oneConnListener{conn: make(chan net.Conn, 1), done: make(chan struct{})}
		conn := newStreamConn(stream)
		l.conn <- conn
		go srv.Serve(l)
		select {
		case <-conn.closed:
		case <-time.After(10 * time.Second):
			t.Fatal("the server still holds the connection 10 s after the stream ended")
		}
		srv.Close()
		a.Close()
		check.mu.Lock()
		defer check.mu.Unlock()

		br := bufio.NewReader(bytes.NewReader(conn.out.Bytes()))
		answered, ended, last := 0, false, false
		for !last {
			resp, err := httpwire.ReadResponse(br)
			if err != nil {
				break
			}
			seq := resp.Header.Get(seqHeader)
			if seq == "" {
				// The server's own 400 for a malformed request ends the
				// connection; nothing the agent answered may follow it.
				ended = true
				continue
			}
			if ended {
				t.Fatalf("request %s answered after the server's own error answer", seq)
			}
			if got, _ := strconv.Atoi(seq); got != answered {
				t.Fatalf("answer %d carries request %s: answers out of request order", answered, seq)
			}
			// Nothing is owed behind an upgrade or a closing exchange.
			last = resp.StatusCode == 101 || resp.WantsClose() || check.closing[answered]
			answered++
		}
		if !last && answered != len(check.closing) {
			t.Fatalf("the server handed over %d requests and answered %d before closing the connection",
				len(check.closing), answered)
		}
		if check.tooDeep {
			t.Fatal("the server handed over a request while two earlier ones were unanswered")
		}
	})
}
