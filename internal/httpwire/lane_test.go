package httpwire

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestLaneOvertakesParkedExchange is the wire-level guarantee the action
// upstream rides on: with the default lane's exchange parked server-side
// (a hanging long-poll), a request on a named lane completes immediately on
// its own connection instead of queueing behind the hang.
func TestLaneOvertakesParkedExchange(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)
	c := NewClient(tcpDialer)
	defer c.Close()

	parkedDone := make(chan error, 1)
	go func() {
		_, err := c.Do(addr, NewRequest("GET", "/park"))
		parkedDone <- err
	}()
	waitFor(t, "request to park", func() bool { return h.parkedCount() == 1 })

	start := time.Now()
	resp, err := c.DoLane(addr, "action", NewRequest("GET", "/side"), 2*time.Second)
	if err != nil {
		t.Fatalf("lane request failed behind a parked exchange: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("lane request took %v; it must not wait for the parked exchange", took)
	}
	if !strings.Contains(string(resp.Body), "/side") {
		t.Fatalf("lane response = %q", resp.Body)
	}
	// The parked exchange is untouched by the lane traffic and completes
	// normally when released.
	if h.parkedCount() != 1 {
		t.Fatal("lane request disturbed the parked exchange")
	}
	h.Release(NewResponse(200, "text/plain", []byte("released")))
	if err := <-parkedDone; err != nil {
		t.Fatal(err)
	}
}

// TestLaneConnectionsAreDistinct checks pooling: lanes get one persistent
// connection each, reused across calls and torn down by Close.
func TestLaneConnectionsAreDistinct(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	c := NewClient(tcpDialer)
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Do(addr, NewRequest("GET", "/a")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DoLane(addr, "x", NewRequest("GET", "/b"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DoLane(addr, "y", NewRequest("GET", "/c"), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	pooled := len(c.conns)
	c.mu.Unlock()
	if pooled != 3 {
		t.Fatalf("pooled connections = %d, want 3 (default + two lanes)", pooled)
	}
}

// TestClientCloseIsFinal: Close fails an exchange the server parked at
// once, and every later request — default lane, named lane, or channel
// upgrade — fails with ErrClientClosed without dialing. (The stale-
// connection retry of a parked exchange would otherwise re-dial and park
// again.)
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
	// — the case DoLane retries.
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
	if _, err := c.DoLane(addr, "action", NewRequest("GET", "/b"), 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("DoLane after Close: %v, want ErrClientClosed", err)
	}
	if _, _, err := c.Upgrade(addr, NewRequest("POST", "/channel"), time.Second); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Upgrade after Close: %v, want ErrClientClosed", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want 1 (the warm-up only)", n)
	}
}
