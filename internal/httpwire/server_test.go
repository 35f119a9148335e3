package httpwire

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestServer runs a Server over an in-process TCP listener and returns
// its address plus a cleanup function.
func startTestServer(t *testing.T, h Handler) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h}
	srv.Start(l)
	t.Cleanup(srv.Close)
	return l.Addr().String(), srv
}

func echoHandler(req *Request) *Response {
	body := fmt.Sprintf("%s %s body=%s", req.Method, req.Target, req.Body)
	return NewResponse(200, "text/plain", []byte(body))
}

func tcpDialer(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

func TestServerClientBasic(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	c := NewClient(tcpDialer)
	defer c.Close()
	resp, err := c.Get(addr, "/hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "GET /hello body=" {
		t.Fatalf("resp = %d %q", resp.StatusCode, resp.Body)
	}
}

func TestServerKeepAliveReuse(t *testing.T) {
	var mu sync.Mutex
	remotes := map[string]int{}
	addr, _ := startTestServer(t, HandlerFunc(func(req *Request) *Response {
		mu.Lock()
		remotes[req.RemoteAddr]++
		mu.Unlock()
		return NewResponse(200, "text/plain", []byte("ok"))
	}))
	c := NewClient(tcpDialer)
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Get(addr, fmt.Sprintf("/r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(remotes) != 1 {
		t.Fatalf("expected 1 reused connection, saw %d distinct remotes", len(remotes))
	}
}

func TestServerPOSTRoundTrip(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	c := NewClient(tcpDialer)
	defer c.Close()
	resp, err := c.Post(addr, "/poll", "application/x-www-form-urlencoded", []byte("tick=9"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "body=tick=9") {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(tcpDialer)
			defer c.Close()
			for j := 0; j < 20; j++ {
				target := fmt.Sprintf("/c%d/r%d", i, j)
				resp, err := c.Get(addr, target)
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(string(resp.Body), target) {
					errs <- fmt.Errorf("wrong body %q for %s", resp.Body, target)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerMalformedRequestGets400(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "NOT A REQUEST\r\n\r\n")
	buf := make([]byte, 1024)
	n, _ := conn.Read(buf)
	if !strings.Contains(string(buf[:n]), "400") {
		t.Fatalf("expected 400 response, got %q", buf[:n])
	}
}

func TestServerConnectionCloseHonored(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
	// Read everything: server must close after one response.
	var all []byte
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		all = append(all, buf[:n]...)
		if err != nil {
			break
		}
	}
	if !strings.HasPrefix(string(all), "HTTP/1.1 200") {
		t.Fatalf("response = %q", all)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	srv.Close()
	if err := <-done; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestClientRetriesStaleConnection(t *testing.T) {
	// Server closes every connection after one request; a pooled client must
	// still complete back-to-back calls via its one-shot retry.
	addr, _ := startTestServer(t, HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200, "text/plain", []byte("ok"))
		resp.Header.Set("Connection", "close")
		return resp
	}))
	c := NewClient(tcpDialer)
	defer c.Close()
	for i := 0; i < 5; i++ {
		resp, err := c.Get(addr, "/x")
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
	}
}

func BenchmarkServerRoundTrip(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &Server{Handler: HandlerFunc(echoHandler)}
	srv.Start(l)
	defer srv.Close()
	c := NewClient(tcpDialer)
	defer c.Close()
	addr := l.Addr().String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(addr, "/bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNilResponseAnswered500: a handler that answers nil, inline or through
// an async respond, gets a 500 on the wire instead of a stalled connection.
func TestNilResponseAnswered500(t *testing.T) {
	for name, h := range map[string]Handler{
		"sync":  HandlerFunc(func(*Request) *Response { return nil }),
		"async": nilAsync{},
	} {
		addr, _ := startTestServer(t, h)
		c := NewClient(tcpDialer)
		resp, err := c.DoTimeout(addr, NewRequest("GET", "/"), 2*time.Second)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != 500 {
			t.Fatalf("%s: status %d, want 500", name, resp.StatusCode)
		}
	}
}

type nilAsync struct{}

func (nilAsync) ServeWire(*Request) *Response { return nil }

func (nilAsync) ServeWireAsync(_ *Request, respond func(*Response)) { respond(nil) }
