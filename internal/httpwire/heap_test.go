package httpwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// liveHeap reports the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeclaredBodiesHoldOnlyWhatArrived is the unauthenticated-peer heap
// probe: 16 connections each declare a maximal Content-Length and go quiet.
// The server may reserve a bounded prefix per body, never the declared
// 32 MiB, so live heap stays within a few MiB instead of reaching 512 MiB.
func TestDeclaredBodiesHoldOnlyWhatArrived(t *testing.T) {
	addr, _ := startTestServer(t, HandlerFunc(echoHandler))
	const conns = 16
	base := liveHeap()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("POST /poll HTTP/1.1\r\nContent-Length: 33554432\r\n\r\nts=0")); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 16 << 20
	var peak uint64
	for i := 0; i < 10; i++ {
		time.Sleep(30 * time.Millisecond)
		if h := liveHeap(); h > base {
			peak = max(peak, h-base)
		}
	}
	if peak > bound {
		t.Fatalf("live heap grew %d MiB for %d quiet connections, want under %d MiB",
			peak>>20, conns, bound>>20)
	}
}

// TestDeclaredFrameHoldsOnlyWhatArrived: a frame header announcing the
// largest payload, followed by a few bytes and EOF, allocates a bounded
// prefix, not the announced length.
func TestDeclaredFrameHoldsOnlyWhatArrived(t *testing.T) {
	var in bytes.Buffer
	in.Write([]byte{1, 0})
	in.Write(binary.BigEndian.AppendUint32(nil, MaxFramePayload))
	in.WriteString("partial")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bufio.NewReader(&in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("err = %v, want ErrFrameTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a truncated frame allocated %d KiB", got>>10)
	}
}
