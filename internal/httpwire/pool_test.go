package httpwire

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFailedLaneExchangeDropsPooledConnection is the half-dead-socket
// guard, checked on the one pooled connection per address that replaced
// the old per-lane ones: when an exchange fails (here a read timeout
// against a parked server), the pooled connection must be discarded so the
// next request dials fresh instead of writing into a socket whose previous
// response is still owed.
func TestFailedLaneExchangeDropsPooledConnection(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)
	var dials atomic.Int32
	c := NewClient(func(a string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", a)
	})
	defer c.Close()

	// Pool the connection with a healthy exchange.
	if _, err := c.Get(addr, "/prime"); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("priming took %d dials, want 1", n)
	}
	// Fail the next exchange on the same connection: the server parks it
	// and the read deadline trips. Timeouts are never retried, so the error
	// must surface AND the pooled connection must go.
	if _, err := c.DoTimeout(addr, NewRequest("GET", "/park"), 50*time.Millisecond); err == nil {
		t.Fatal("expected the parked exchange to time out")
	}
	c.mu.Lock()
	_, stillPooled := c.conns[addr]
	c.mu.Unlock()
	if stillPooled {
		t.Fatal("failed exchange left its half-dead connection in the pool")
	}
	// The next request rides a fresh dial and completes normally.
	resp, err := c.Get(addr, "/after")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("follow-up request got status %d", resp.StatusCode)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("follow-up request reused a dropped connection (%d dials, want 2)", n)
	}
	h.Release(NewResponse(200, "text/plain", nil))
}

// TestDialRaceKeepsInFlightConnection pins the getConn race: two requests
// to the same address miss the pool simultaneously and both dial. The loser
// must close its OWN fresh socket and join the winner's — the old behavior
// (replace the pooled entry and close the previous one) killed the winner's
// connection while its long-poll exchange was parked on it.
func TestDialRaceKeepsInFlightConnection(t *testing.T) {
	h := &parkingHandler{}
	addr, _ := startTestServer(t, h)

	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	var dials atomic.Int32
	c := NewClient(func(a string) (net.Conn, error) {
		entered <- struct{}{}
		<-release // hold both racing dials until each has committed to dialing
		dials.Add(1)
		return net.Dial("tcp", a)
	})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(addr, NewRequest("GET", "/park"))
			errs <- err
		}()
	}
	<-entered
	<-entered
	close(release)

	// The pool winner's request parks server-side; the loser is pipelined
	// behind it on the shared connection and parks once the server reads
	// it. Release until both exchanges are answered.
	released := 0
	waitFor(t, "both racing requests to be answered", func() bool {
		released += h.Release(NewResponse(200, "text/plain", []byte("released")))
		return released == 2
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("racing request failed: %v (dial loser closed the in-flight connection?)", err)
		}
	}
	c.mu.Lock()
	pooled := len(c.conns)
	c.mu.Unlock()
	if pooled != 1 {
		t.Fatalf("pool holds %d connections after the race, want 1", pooled)
	}
}
