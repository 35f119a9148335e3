package netsim

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
)

// LiveConns reports how many dialed connections are currently established.
func (n *Network) LiveConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, bucket := range n.conns {
		total += len(bucket)
	}
	return total
}

// dialRetry dials, yielding to the accept drain on a backlog-full refusal —
// the benchmark equivalent of a client retrying a SYN-queue overflow.
func dialRetry(b *testing.B, n *Network, fromHost, toAddr string) net.Conn {
	b.Helper()
	for {
		c, err := n.Dial(fromHost, toAddr)
		if err == nil {
			return c
		}
		if !strings.Contains(err.Error(), "backlog full") {
			b.Fatal(err)
		}
		runtime.Gosched()
	}
}

// BenchmarkDialWithLiveConns measures one Dial+Close against tables of
// already-established connections. The bookkeeping is bucketed with
// death-hook deregistration, so ns/op must stay flat as the live table
// grows — the property that keeps thousands-of-participant scale scenarios
// from turning every dial into a full-table prune under the network mutex.
func BenchmarkDialWithLiveConns(b *testing.B) {
	for _, live := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			n := NewNetwork()
			l, err := n.Listen("srv:80")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					if _, err := l.Accept(); err != nil {
						return
					}
				}
			}()
			held := make([]net.Conn, 0, live)
			for i := 0; i < live; i++ {
				held = append(held, dialRetry(b, n, fmt.Sprintf("h%d", i), "srv:80"))
			}
			if got := n.LiveConns(); got != live {
				b.Fatalf("live conns = %d, want %d", got, live)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dialRetry(b, n, "bench.host", "srv:80").Close()
			}
			b.StopTimer()
			for _, c := range held {
				c.Close()
			}
		})
	}
}

// BenchmarkDialParallel drives concurrent dial+close from many goroutines
// against a large live table — the contention shape of a mass rejoin churn.
func BenchmarkDialParallel(b *testing.B) {
	n := NewNetwork()
	l, err := n.Listen("srv:80")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 2048; i++ {
		defer dialRetry(b, n, fmt.Sprintf("h%d", i), "srv:80").Close()
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			dialRetry(b, n, "bench.host", "srv:80").Close()
		}
	})
}
