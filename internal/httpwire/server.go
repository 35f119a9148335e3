package httpwire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
)

// Handler responds to one HTTP request. Implementations must be safe for
// concurrent use: the server invokes the handler from one goroutine per
// connection, exactly as RCB-Agent's asynchronous socket listener processes
// overlapping participant connections (paper §4.1.1).
type Handler interface {
	ServeWire(req *Request) *Response
}

// AsyncHandler is an optional interface a Handler can additionally implement
// to answer requests asynchronously. ServeWireAsync may either call respond
// before returning (the synchronous case) or park the request and complete
// it later from any goroutine — the hanging-GET (Comet) channel RCB's
// long-poll delivery rides on. respond must be called exactly once per
// request; extra calls are ignored. While a request is unanswered —
// parked — the server reads at most one more request off its connection
// and hands it to the handler at once (a pipelining client's next request,
// which may end the park), but answers strictly in request order, as
// HTTP/1.1 requires. When the server is closed with a request still
// parked, the request is abandoned: the connection drops and the handler's
// eventual respond call becomes a no-op.
//
// respond must be a non-blocking hand-off: a handler may complete many
// parked requests back to back from one goroutine, so a respond that waited
// on a socket write would stall every request after it. Server's respond is
// a buffered channel send to the connection's goroutine, which does the
// write; a wrapper that adds its own work must keep it as short.
type AsyncHandler interface {
	Handler
	ServeWireAsync(req *Request, respond func(*Response))
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) *Response

// ServeWire calls f(req).
func (f HandlerFunc) ServeWire(req *Request) *Response { return f(req) }

// Server accepts connections from a net.Listener and dispatches requests to
// a Handler over persistent (keep-alive) connections.
type Server struct {
	Handler Handler

	// Logf, when non-nil, receives per-connection error diagnostics.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	done     chan struct{} // closed by Close; unparks waiting connections
	wg       sync.WaitGroup
}

// doneChan lazily creates the channel Close broadcasts shutdown on, so a
// connection can park on it before Serve or Close has run.
func (s *Server) doneChan() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done == nil {
		s.done = make(chan struct{})
	}
	return s.done
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("httpwire: server closed")

// Serve accepts connections on l until Close is called. It blocks.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Start runs Serve on its own goroutine and returns immediately.
func (s *Server) Start(l net.Listener) {
	go func() { _ = s.Serve(l) }()
}

// Close stops the listener, closes active connections, and waits for
// connection goroutines to drain. Requests a handler has parked via
// ServeWireAsync are abandoned: their connections drop immediately rather
// than holding Close hostage until the handler responds.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.done == nil {
		s.done = make(chan struct{})
	}
	close(s.done)
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// served is one request handed to the handler and its pending answer.
type served struct {
	req    *Request
	respCh chan *Response
}

// readResult is one request read off a connection, or why none was.
type readResult struct {
	req *Request
	err error
}

// serveConn reads requests off conn and writes their answers in request
// order. A request is read once the previous one is answered — or, while
// that one is parked, at once, on a helper goroutine: at most one request
// is read ahead of a parked one, and none behind a request that asks to
// close the connection.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 8<<10)
	done := s.doneChan() // fetched once: the channel never changes after creation
	var (
		queue   = make([]served, 0, 2) // handed over, unanswered, in request order
		readErr error                  // why reading stopped; acted on once the queue drains
		ahead   chan readResult        // the read-ahead helper's results, nil until first used
		start   chan struct{}          // starts one helper read
		reading bool                   // a helper read is under way
	)
	for {
		if !reading && readErr == nil {
			switch {
			case len(queue) == 0:
				req, err := ReadRequest(br)
				if readErr = err; err == nil {
					queue = append(queue, s.dispatch(conn, req))
				}
				continue
			case len(queue) == 1 && len(queue[0].respCh) == 0 && !queue[0].req.WantsClose():
				// The head is parked: read one request ahead of it.
				if ahead == nil {
					ahead, start = make(chan readResult, 1), make(chan struct{}, 1)
					go readAhead(br, start, ahead)
					defer close(start)
				}
				start <- struct{}{}
				reading = true
			}
		}
		var headCh chan *Response
		var aheadCh chan readResult
		if len(queue) > 0 {
			headCh = queue[0].respCh
		}
		if reading {
			aheadCh = ahead
		} else if headCh == nil {
			s.readFailed(conn, readErr)
			return
		}
		var resp *Response
		select {
		case r := <-aheadCh:
			reading = false
			if readErr = r.err; r.err == nil {
				queue = append(queue, s.dispatch(conn, r.req))
			}
			continue
		case <-done:
			// Server closing with a request still parked: abandon it. The
			// handler's eventual respond call is a no-op.
			return
		case resp = <-headCh:
		}
		req := queue[0].req
		queue = append(queue[:0], queue[1:]...)
		if err := WriteResponse(conn, resp); err != nil {
			s.logf("httpwire: write to %s: %v", conn.RemoteAddr(), err)
			return
		}
		if resp.Hijack != nil {
			if reading || len(queue) > 0 {
				// Bytes past the handshake already went to a request read
				// ahead: the connection cannot change hands.
				s.logf("httpwire: %s: upgrade answered behind a pipelined request", conn.RemoteAddr())
				return
			}
			// The handler takes over the connection (frame upgrade). Run the
			// takeover on this goroutine: the deferred cleanup closes the
			// conn when it returns, and the conn stays in s.conns so
			// Server.Close severs a live channel like any other connection.
			resp.Hijack(conn, br)
			return
		}
		if req.WantsClose() || resp.WantsClose() {
			return
		}
	}
}

// dispatch hands req to the handler; its answer arrives on the returned
// channel, at once or, for a parked request, later. A nil answer becomes a
// 500.
func (s *Server) dispatch(conn net.Conn, req *Request) served {
	if addr := conn.RemoteAddr(); addr != nil {
		req.RemoteAddr = addr.String()
	}
	respCh := make(chan *Response, 1)
	respond := func(r *Response) {
		if r == nil {
			r = NewResponse(500, "text/plain", []byte("nil response\n"))
		}
		select {
		case respCh <- r:
		default: // respond called more than once; ignore extras
		}
	}
	if async, ok := s.Handler.(AsyncHandler); ok {
		async.ServeWireAsync(req, respond)
	} else {
		respond(s.Handler.ServeWire(req))
	}
	return served{req: req, respCh: respCh}
}

// readFailed ends a connection whose reading stopped with err: malformed
// input gets a 400 before the connection drops.
func (s *Server) readFailed(conn net.Conn, err error) {
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		return
	}
	s.logf("httpwire: read from %s: %v", conn.RemoteAddr(), err)
	if errors.Is(err, ErrMalformed) || errors.Is(err, ErrHeaderTooLarge) {
		_ = WriteResponse(conn, NewResponse(400, "text/plain", []byte("bad request\n")))
	}
}

// readAhead is a connection's read-ahead helper: one request per signal on
// start, each result sent on out. It ends when start closes or at the first
// read error, which the connection's own close provokes.
func readAhead(br *bufio.Reader, start <-chan struct{}, out chan<- readResult) {
	for range start {
		req, err := ReadRequest(br)
		out <- readResult{req, err}
		if err != nil {
			return
		}
	}
}

// ListenAndServe listens on a real TCP address and serves handler — the
// entry point used by the cmd/ tools that run RCB over actual sockets.
func ListenAndServe(addr string, handler Handler) (*Server, net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &Server{Handler: handler}
	srv.Start(l)
	return srv, l, nil
}
