package netsim

import (
	"math"
	"time"
)

// Txn is one HTTP request/response exchange measured in wire bytes.
type Txn struct {
	Up   int // request bytes, client → server
	Down int // response bytes, server → client
}

// LinkModel computes transfer times analytically for a link profile. The
// experiment harness runs the real RCB stack over instant pipes while
// counting exact wire bytes, then replays the recorded transactions through
// this model to obtain deterministic M1–M4 values for the paper's LAN and
// WAN environments (README, "Reproduction method and recorded deviations").
//
// The model: a request/response costs one round trip of propagation plus
// serialization of each direction at its bandwidth. A fresh connection adds
// one RTT of TCP handshake. Parallel fetches share the link's bandwidth but
// overlap their round trips up to the configured parallelism.
type LinkModel struct {
	Link Link
}

// RTT returns the round-trip propagation delay of the link.
func (m LinkModel) RTT() time.Duration { return 2 * m.Link.Latency }

// serialize returns the time to push n bytes at bps (zero bps = instant).
func serialize(n int, bps float64) time.Duration {
	if bps <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// ConnSetup returns the TCP connection establishment cost (one RTT).
func (m LinkModel) ConnSetup() time.Duration { return m.RTT() }

// RequestResponse returns the duration of a single exchange on an
// established connection.
func (m LinkModel) RequestResponse(t Txn) time.Duration {
	return m.RTT() + serialize(t.Up, m.Link.UpBps) + serialize(t.Down, m.Link.DownBps)
}

// FetchParallel returns the time to fetch txns with up to parallelism
// concurrent persistent connections sharing the link bandwidth — the
// pattern of a browser downloading supplementary objects. Round-trip
// latencies overlap across the parallel connections while serialization
// shares the link:
//
//	time = RTT · ⌈N/P⌉ + ΣUp/upBps + ΣDown/downBps
//
// A conservative model, but it preserves exactly what the paper's M3/M4
// comparison depends on: object count, total bytes, and the latency and
// bandwidth of the chosen path.
func (m LinkModel) FetchParallel(txns []Txn, parallelism int) time.Duration {
	if len(txns) == 0 {
		return 0
	}
	if parallelism < 1 {
		parallelism = 1
	}
	rounds := int(math.Ceil(float64(len(txns)) / float64(parallelism)))
	var up, down int
	for _, t := range txns {
		up += t.Up
		down += t.Down
	}
	return time.Duration(rounds)*m.RTT() +
		serialize(up, m.Link.UpBps) +
		serialize(down, m.Link.DownBps)
}

// TCP slow-start parameters for cold-connection transfers: the 2009-era
// initial congestion window of 3 segments (RFC 3390) and the standard
// Ethernet MSS.
const (
	mssBytes         = 1460
	initcwndSegments = 3
)

// ColdDownload returns the time to receive n bytes on a connection that has
// just completed its handshake: the congestion window starts at 3 segments
// and doubles each round trip until it covers the link's bandwidth-delay
// product, after which the remainder flows at line rate. This is the term
// that dominates document loads from distant origins (M1) but not the
// warm, persistent polling connection that carries RCB synchronization
// (M2) — the asymmetry behind the paper's Figure 7.
func (m LinkModel) ColdDownload(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	bps := m.Link.DownBps
	rtt := m.RTT()
	if rtt == 0 {
		return serialize(n, bps)
	}
	remaining := float64(n)
	window := float64(initcwndSegments * mssBytes)
	var total time.Duration
	for remaining > 0 {
		if bps > 0 {
			bdp := bps * rtt.Seconds()
			if window >= bdp {
				// Window covers the pipe: line rate from here.
				return total + serialize(int(remaining), bps)
			}
		}
		if window >= remaining {
			// Last window: the tail arrives within one round.
			return total + serialize(int(remaining), bps)
		}
		total += rtt
		remaining -= window
		window *= 2
	}
	return total
}
