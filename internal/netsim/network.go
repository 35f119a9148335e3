package netsim

import (
	"fmt"
	"net"
	"sync"
)

// Network is a virtual internet: named hosts listen on string addresses
// ("shop.example:80", "host.lan:3000") and dial each other through links
// chosen by a profile function. It underpins the paper's topology — a host
// browser, participant browsers, and remote origin web servers, each pair
// separated by LAN- or WAN-class links.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	// LinkFor selects the link profile for a dial from one host to another.
	// Defaults to Instant for every pair.
	linkFor func(fromHost, toAddr string) Link
	// blocked, when non-nil, vetoes dials (NAT reachability rules).
	blocked func(fromHost, toAddr string) bool
	// seed, when set, derives a deterministic fault seed per dial so lossy
	// and jittery links replay identically across runs.
	seed    int64
	seeded  bool
	dialSeq int64
	// conns records live dialed connections so a test can reset the flows
	// to one address (a link flap that kills established TCP connections).
	// Bucketed by destination address — client conn → dialing host — so a
	// dial inserts in O(1) and ResetConns touches only its own bucket; a
	// conn that dies (reset or Close) removes itself through its onDead
	// hook instead of waiting for the next full-table sweep. With
	// thousands of live connections the old flat slice made every dial an
	// O(n) prune under the network mutex.
	conns map[string]map[*Conn]string
	// partitions holds the one-directional cuts installed by Partition:
	// a dial matching any rule fails as unreachable until Heal removes it.
	// "" in either field is a wildcard.
	partitions map[partitionRule]struct{}
}

// partitionRule is one directional cut: traffic from fromHost to toAddr
// cannot flow. Empty fields match any host/address.
type partitionRule struct {
	fromHost string
	toAddr   string
}

func (r partitionRule) matches(fromHost, toAddr string) bool {
	return (r.fromHost == "" || r.fromHost == fromHost) &&
		(r.toAddr == "" || r.toAddr == toAddr)
}

// NewNetwork returns an empty virtual internet where every path defaults to
// the Instant (unshaped) link.
func NewNetwork() *Network {
	return &Network{
		listeners: make(map[string]*Listener),
		linkFor:   func(string, string) Link { return Instant },
	}
}

// SetLinkPolicy installs the function that picks a link profile per
// (fromHost, toAddr) pair.
func (n *Network) SetLinkPolicy(f func(fromHost, toAddr string) Link) {
	n.mu.Lock()
	n.linkFor = f
	n.mu.Unlock()
}

// Listen registers a listener for addr. Listening twice on one address is
// an error, mirroring a bind conflict.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("netsim: address %s already in use", addr)
	}
	l := &Listener{network: n, addr: addr, incoming: make(chan *Conn, listenBacklog)}
	n.listeners[addr] = l
	return l, nil
}

// listenBacklog is the accept-queue depth, sized like a kernel somaxconn so
// a flash crowd of simultaneous dials (the scale lab joins thousands of
// participants at once) rides out scheduler hiccups in
// the accept loop instead of being refused.
const listenBacklog = 256

// SetSeed makes every subsequent dial derive its fault randomness (loss,
// jitter) deterministically from seed and the dial's ordinal, so a fault
// scenario replays identically given the same dial sequence.
func (n *Network) SetSeed(seed int64) {
	n.mu.Lock()
	n.seed = seed
	n.seeded = true
	n.dialSeq = 0
	n.mu.Unlock()
}

// Dial connects fromHost to toAddr through the configured link profile.
// Dials vetoed by a reachability rule (DenyDialTo) fail as unreachable.
func (n *Network) Dial(fromHost, toAddr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[toAddr]
	profile := n.linkFor(fromHost, toAddr)
	blocked := n.blocked != nil && n.blocked(fromHost, toAddr)
	partitioned := n.partitionedLocked(fromHost, toAddr)
	seeded, seed := n.seeded, n.seed
	n.dialSeq++
	dialSeq := n.dialSeq
	n.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("netsim: host %s unreachable from %s (NAT)", toAddr, fromHost)
	}
	if partitioned {
		return nil, fmt.Errorf("netsim: host %s unreachable from %s (partitioned)", toAddr, fromHost)
	}
	if l == nil {
		return nil, fmt.Errorf("netsim: connection refused: no listener on %s", toAddr)
	}
	var client, server *Conn
	if seeded {
		client, server = NewConnPairSeeded(profile, fromHost, toAddr, seed*0x5DEECE66D+dialSeq)
	} else {
		client, server = NewConnPair(profile, fromHost, toAddr)
	}
	// Register before delivering: the hook must be armed by the time any
	// other goroutine can reset the pair, and a failed deliver cleans up
	// through the same path (Close fires onDead exactly once).
	client.onDead = func() { n.forget(toAddr, client) }
	n.mu.Lock()
	bucket := n.conns[toAddr]
	if bucket == nil {
		if n.conns == nil {
			n.conns = make(map[string]map[*Conn]string)
		}
		bucket = make(map[*Conn]string)
		n.conns[toAddr] = bucket
	}
	bucket[client] = fromHost
	n.mu.Unlock()
	if err := l.deliver(server); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// forget drops a dead connection's record; the conn's death hook calls it
// exactly once, from reset and Close alike.
func (n *Network) forget(toAddr string, c *Conn) {
	n.mu.Lock()
	if bucket := n.conns[toAddr]; bucket != nil {
		delete(bucket, c)
		if len(bucket) == 0 {
			delete(n.conns, toAddr)
		}
	}
	n.mu.Unlock()
}

// LiveConns reports how many dialed connections are currently established —
// an observability hook for scale harnesses and the bookkeeping benchmark.
func (n *Network) LiveConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, bucket := range n.conns {
		total += len(bucket)
	}
	return total
}

func (n *Network) partitionedLocked(fromHost, toAddr string) bool {
	for r := range n.partitions {
		if r.matches(fromHost, toAddr) {
			return true
		}
	}
	return false
}

// Partition installs a one-directional cut: from now on, dials from
// fromHost to toAddr fail as unreachable and matching established
// connections are reset. Unlike ResetConns — a momentary flap — the cut
// persists until Heal removes it, modeling an asymmetric routing failure
// or a mid-migration network split. Either argument may be "" to match
// any host/address. Returns how many established connections were cut.
func (n *Network) Partition(fromHost, toAddr string) int {
	rule := partitionRule{fromHost: fromHost, toAddr: toAddr}
	n.mu.Lock()
	if n.partitions == nil {
		n.partitions = make(map[partitionRule]struct{})
	}
	n.partitions[rule] = struct{}{}
	// A concrete toAddr cuts one bucket; only the wildcard walks them all.
	var victims []*Conn
	collect := func(toAddr string, bucket map[*Conn]string) {
		for c, fromHost := range bucket {
			if !c.dead.Load() && rule.matches(fromHost, toAddr) {
				victims = append(victims, c)
			}
		}
	}
	if toAddr != "" {
		collect(toAddr, n.conns[toAddr])
	} else {
		for addr, bucket := range n.conns {
			collect(addr, bucket)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.reset()
	}
	return len(victims)
}

// Heal removes the Partition rule with exactly these arguments; traffic
// flows again on the next dial. Healing a rule that was never installed is
// a no-op.
func (n *Network) Heal(fromHost, toAddr string) {
	n.mu.Lock()
	delete(n.partitions, partitionRule{fromHost: fromHost, toAddr: toAddr})
	n.mu.Unlock()
}

// ResetConns abruptly resets every live connection dialed to toAddr,
// modeling a link flap or middlebox failure that kills established flows
// while the listener itself stays up. It returns how many connections were
// reset.
func (n *Network) ResetConns(toAddr string) int {
	n.mu.Lock()
	var victims []*Conn
	for c := range n.conns[toAddr] {
		if !c.dead.Load() {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.reset()
	}
	return len(victims)
}

// Dialer returns an httpwire-compatible dial function bound to fromHost.
func (n *Network) Dialer(fromHost string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return n.Dial(fromHost, addr) }
}

// unregister removes a closed listener.
func (n *Network) unregister(addr string, l *Listener) {
	n.mu.Lock()
	if n.listeners[addr] == l {
		delete(n.listeners, addr)
	}
	n.mu.Unlock()
}

// Listener implements net.Listener over the virtual network.
type Listener struct {
	network  *Network
	addr     string
	incoming chan *Conn

	mu     sync.Mutex
	closed bool
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, ok := <-l.incoming
	if !ok {
		return nil, ErrClosed
	}
	return conn, nil
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.incoming)
	l.mu.Unlock()
	l.network.unregister(l.addr, l)
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return simAddr(l.addr) }

func (l *Listener) deliver(conn *Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("netsim: connection refused: %s closed", l.addr)
	}
	select {
	case l.incoming <- conn:
		return nil
	default:
		return fmt.Errorf("netsim: connection refused: %s backlog full", l.addr)
	}
}

var _ net.Listener = (*Listener)(nil)
