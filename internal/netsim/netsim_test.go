package netsim

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestConnPairBasicExchange(t *testing.T) {
	client, server := NewConnPair(Instant, "c", "s")
	defer client.Close()
	defer server.Close()
	go func() {
		client.Write([]byte("ping"))
	}()
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("read %q err %v", buf[:n], err)
	}
	server.Write([]byte("pong"))
	n, err = client.Read(buf)
	if err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("read %q err %v", buf[:n], err)
	}
}

func TestConnAddrs(t *testing.T) {
	client, server := NewConnPair(Instant, "browser.lan", "agent.lan:3000")
	defer client.Close()
	defer server.Close()
	if client.RemoteAddr().String() != "agent.lan:3000" {
		t.Errorf("client remote = %s", client.RemoteAddr())
	}
	if server.RemoteAddr().String() != "browser.lan" {
		t.Errorf("server remote = %s", server.RemoteAddr())
	}
	if client.LocalAddr().Network() != "sim" {
		t.Errorf("network = %s", client.LocalAddr().Network())
	}
}

func TestConnCloseGivesEOF(t *testing.T) {
	client, server := NewConnPair(Instant, "c", "s")
	client.Write([]byte("last"))
	client.Close()
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "last" {
		t.Fatalf("pre-close data lost: %q %v", buf[:n], err)
	}
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer should fail")
	}
}

func TestConnCloseUnblocksReader(t *testing.T) {
	client, server := NewConnPair(Instant, "c", "s")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := server.Read(buf)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	client.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}

func TestReadDeadline(t *testing.T) {
	client, server := NewConnPair(Instant, "c", "s")
	defer client.Close()
	defer server.Close()
	server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := server.Read(buf)
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestLatencyShaping(t *testing.T) {
	link := Link{Latency: 30 * time.Millisecond}
	client, server := NewConnPair(link, "c", "s")
	defer client.Close()
	defer server.Close()
	start := time.Now()
	client.Write([]byte("delayed"))
	buf := make([]byte, 16)
	if _, err := server.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("one-way delivery took %v, want >= ~30ms", elapsed)
	}
}

func TestBandwidthShaping(t *testing.T) {
	// 1 MB/s: 100 KB should take ~100 ms.
	link := Link{UpBps: 1e6}
	client, server := NewConnPair(link, "c", "s")
	defer client.Close()
	defer server.Close()
	payload := bytes.Repeat([]byte("x"), 100_000)
	start := time.Now()
	go client.Write(payload)
	got := 0
	buf := make([]byte, 32<<10)
	for got < len(payload) {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond || elapsed > 400*time.Millisecond {
		t.Errorf("100KB at 1MB/s took %v, want ~100ms", elapsed)
	}
}

func TestScaledLink(t *testing.T) {
	l := Link{Latency: 100 * time.Millisecond, UpBps: 1000, DownBps: 2000}
	s := l.Scaled(10)
	if s.Latency != 10*time.Millisecond || s.UpBps != 10000 || s.DownBps != 20000 {
		t.Errorf("scaled = %+v", s)
	}
	unlimited := Link{Latency: time.Second}
	if got := unlimited.Scaled(4); got.UpBps != 0 {
		t.Errorf("unlimited bandwidth must stay unlimited, got %v", got.UpBps)
	}
}

func TestNetworkListenDial(t *testing.T) {
	nw := NewNetwork()
	l, err := nw.Listen("origin.example:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(conn, conn) // echo
	}()
	conn, err := nw.Dial("browser.lan", "origin.example:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("hi"))
	buf := make([]byte, 4)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "hi" {
		t.Fatalf("echo failed: %q %v", buf[:n], err)
	}
}

func TestNetworkDialUnknownHost(t *testing.T) {
	nw := NewNetwork()
	if _, err := nw.Dial("a", "nowhere:1"); err == nil {
		t.Fatal("dial to unregistered address must fail")
	}
}

func TestNetworkDoubleListen(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("h:1")
	defer l.Close()
	if _, err := nw.Listen("h:1"); err == nil {
		t.Fatal("double listen must fail")
	}
}

func TestNetworkListenerCloseRefusesDials(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("h:1")
	l.Close()
	if _, err := nw.Dial("a", "h:1"); err == nil {
		t.Fatal("dial after close must fail")
	}
	// Address is free again.
	l2, err := nw.Listen("h:1")
	if err != nil {
		t.Fatalf("relisten failed: %v", err)
	}
	l2.Close()
}

func TestNetworkLinkPolicy(t *testing.T) {
	nw := NewNetwork()
	nw.SetLinkPolicy(func(from, to string) Link {
		if from == "far.away" {
			return Link{Latency: 25 * time.Millisecond}
		}
		return Instant
	})
	l, _ := nw.Listen("srv:1")
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(conn, conn)
		}
	}()

	measure := func(from string) time.Duration {
		conn, err := nw.Dial(from, "srv:1")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		conn.Write([]byte("x"))
		buf := make([]byte, 1)
		conn.Read(buf)
		return time.Since(start)
	}
	near := measure("near.by")
	far := measure("far.away")
	if far < 40*time.Millisecond {
		t.Errorf("far RTT = %v, want >= 50ms", far)
	}
	if near > far {
		t.Errorf("near (%v) slower than far (%v)", near, far)
	}
}

func TestCountingConn(t *testing.T) {
	client, server := NewConnPair(Instant, "c", "s")
	defer server.Close()
	cc := NewCountingConn(client)
	defer cc.Close()
	go func() {
		buf := make([]byte, 16)
		n, _ := server.Read(buf)
		server.Write(buf[:n])
	}()
	cc.Write([]byte("12345"))
	buf := make([]byte, 16)
	cc.Read(buf)
	in, out := cc.Totals()
	if in != 5 || out != 5 {
		t.Fatalf("totals = %d/%d, want 5/5", in, out)
	}
}

func TestConcurrentConnUse(t *testing.T) {
	// Many writers and one reader must not race or lose data.
	client, server := NewConnPair(Instant, "c", "s")
	defer client.Close()
	defer server.Close()
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				client.Write([]byte("m"))
			}
		}()
	}
	done := make(chan int)
	go func() {
		total := 0
		buf := make([]byte, 256)
		for total < writers*per {
			n, err := server.Read(buf)
			if err != nil {
				break
			}
			total += n
		}
		done <- total
	}()
	wg.Wait()
	select {
	case total := <-done:
		if total != writers*per {
			t.Fatalf("read %d bytes, want %d", total, writers*per)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader stalled")
	}
}

func TestLinkModelRequestResponse(t *testing.T) {
	m := LinkModel{Link: Link{Latency: 10 * time.Millisecond, UpBps: 1000, DownBps: 2000}}
	// RTT 20ms + 100/1000 s up + 200/2000 s down = 20ms + 100ms + 100ms.
	got := m.RequestResponse(Txn{Up: 100, Down: 200})
	want := 220 * time.Millisecond
	if got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLinkModelUnlimitedBandwidth(t *testing.T) {
	m := LinkModel{Link: Link{Latency: 5 * time.Millisecond}}
	if got := m.RequestResponse(Txn{Up: 1 << 20, Down: 1 << 20}); got != 10*time.Millisecond {
		t.Fatalf("unshaped link must cost only RTT, got %v", got)
	}
}

func TestLinkModelFetchParallelRounds(t *testing.T) {
	m := LinkModel{Link: Link{Latency: 10 * time.Millisecond}}
	txns := make([]Txn, 10)
	// 10 objects, parallelism 4 → ceil(10/4)=3 rounds of 20ms RTT.
	if got := m.FetchParallel(txns, 4); got != 60*time.Millisecond {
		t.Fatalf("got %v, want 60ms", got)
	}
	// Sequential: 10 × RTT.
	if got := m.FetchParallel(txns, 1); got != 200*time.Millisecond {
		t.Fatalf("got %v, want 200ms", got)
	}
}

func TestLinkModelMonotonicInBytesProperty(t *testing.T) {
	m := LinkModel{Link: WAN}
	f := func(a, b uint16) bool {
		small := m.RequestResponse(Txn{Up: 100, Down: int(a)})
		large := m.RequestResponse(Txn{Up: 100, Down: int(a) + int(b)})
		return large >= small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkModelLANFasterThanWANProperty(t *testing.T) {
	lan := LinkModel{Link: LAN}
	wan := LinkModel{Link: WAN}
	f := func(up, down uint16) bool {
		t := Txn{Up: int(up), Down: int(down)}
		return lan.RequestResponse(t) <= wan.RequestResponse(t)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// PageLoad returns the time for a full page load: connection setup, the
// document fetch, then the supplementary objects fetched with the given
// parallelism over already-warm connections.
func (m LinkModel) PageLoad(document Txn, objects []Txn, parallelism int) time.Duration {
	return m.ConnSetup() + m.RequestResponse(document) + m.FetchParallel(objects, parallelism)
}

func TestLinkModelPageLoadComposition(t *testing.T) {
	m := LinkModel{Link: Link{Latency: 10 * time.Millisecond}}
	doc := Txn{Up: 100, Down: 1000}
	objs := []Txn{{50, 500}, {50, 500}}
	got := m.PageLoad(doc, objs, 2)
	want := m.ConnSetup() + m.RequestResponse(doc) + m.FetchParallel(objs, 2)
	if got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}
