package httpwire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPipelinedExchangesAnswerInOrder: a request sent while an earlier one
// is parked goes out on the same connection at once; the server hands it to
// the handler while the first is still parked, but the answers arrive in
// request order, and reading the second reads the first on the way.
func TestPipelinedExchangesAnswerInOrder(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)
	var dials atomic.Int32
	c := NewClient(func(a string) (net.Conn, error) {
		dials.Add(1)
		return tcpDialer(a)
	})
	defer c.Close()

	parked, err := c.Send(addr, NewRequest("GET", "/park"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "request to park", func() bool { return h.parkedCount() == 1 })
	second, err := c.Send(addr, NewRequest("GET", "/second"))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		resp, err := second.Read(2 * time.Second)
		if err != nil {
			got <- err.Error()
			return
		}
		got <- string(resp.Body)
	}()
	select {
	case body := <-got:
		t.Fatalf("second answer %q arrived ahead of the parked one", body)
	case <-time.After(30 * time.Millisecond):
	}
	h.Release(NewResponse(200, "text/plain", []byte("released")))
	if body := <-got; body != "GET /second body=" {
		t.Fatalf("second answer = %q", body)
	}
	resp, err := parked.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "released" {
		t.Fatalf("parked answer = %q", resp.Body)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
}

// TestServerReadsOneAheadOfParked: with a request parked, the server reads
// exactly one more off the connection; a third waits in the socket until
// the parked one is answered.
func TestServerReadsOneAheadOfParked(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		fmt.Fprintf(conn, "GET /park HTTP/1.1\r\nHost: x\r\n\r\n")
	}
	waitFor(t, "two requests to park", func() bool { return h.parkedCount() == 2 })
	time.Sleep(30 * time.Millisecond)
	if got := h.parkedCount(); got != 2 {
		t.Fatalf("server dispatched %d parked requests, want 2 (one read ahead)", got)
	}
	h.Release(NewResponse(200, "text/plain", []byte("a")))
	waitFor(t, "the third request to park", func() bool { return h.parkedCount() == 1 })
	h.Release(NewResponse(200, "text/plain", []byte("b")))
	br := bufio.NewReader(conn)
	for i, want := range []string{"a", "a", "b"} {
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != want {
			t.Fatalf("answer %d = %q, want %q", i, resp.Body, want)
		}
	}
}

// TestServerNeverReadsPastClose: a parked request that asks to close the
// connection is not read past, so nothing behind it reaches the handler.
func TestServerNeverReadsPastClose(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /park HTTP/1.1\r\nConnection: close\r\n\r\nGET /park HTTP/1.1\r\n\r\n")
	waitFor(t, "request to park", func() bool { return h.parkedCount() == 1 })
	time.Sleep(30 * time.Millisecond)
	if got := h.parkedCount(); got != 1 {
		t.Fatalf("server read past a closing request (%d parked)", got)
	}
	h.Release(NewResponse(200, "text/plain", []byte("bye")))
	all := make([]byte, 0, 256)
	buf := make([]byte, 256)
	for {
		n, err := conn.Read(buf)
		all = append(all, buf[:n]...)
		if err != nil {
			break
		}
	}
	if strings.Count(string(all), "HTTP/1.1 200") != 1 {
		t.Fatalf("answers after a closing request = %q, want exactly one", all)
	}
}

// TestClientCloseIsFinal: Close fails an exchange the server parked at
// once, and every later request — plain or channel upgrade — fails with
// ErrClientClosed without dialing. (The stale-connection retry of a parked
// exchange would otherwise re-dial and park again.)
func TestClientCloseIsFinal(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)
	t.Cleanup(func() { h.Release(NewResponse(200, "text/plain", nil)) })
	var dials atomic.Int32
	c := NewClient(func(addr string) (net.Conn, error) {
		dials.Add(1)
		return tcpDialer(addr)
	})
	// Warm the pooled connection so the parked exchange rides a cached one
	// — the case a failed read retries.
	if _, err := c.Do(addr, NewRequest("GET", "/warm")); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := c.Do(addr, NewRequest("GET", "/park"))
		parked <- err
	}()
	waitFor(t, "request to park", func() bool { return h.parkedCount() == 1 })

	c.Close()
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("parked exchange succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the parked exchange blocked")
	}
	if _, err := c.Do(addr, NewRequest("GET", "/a")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Do after Close: %v, want ErrClientClosed", err)
	}
	if _, err := c.Send(addr, NewRequest("GET", "/b")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Send after Close: %v, want ErrClientClosed", err)
	}
	if _, _, err := c.Upgrade(addr, NewRequest("POST", "/channel"), time.Second); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Upgrade after Close: %v, want ErrClientClosed", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1 (the warm-up only)", n)
	}
}
