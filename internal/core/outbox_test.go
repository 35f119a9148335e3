package core

// Upstream outbox tests: the server-free model check of the Outbox type,
// and the duplex windows a single ordered buffer closes — an action queued
// on a live channel, and an attach whose backlog a concurrent dispatch
// used to overtake.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// TestOutboxMatchesSliceModel drives random Add/Take/Ack/AckBatch/Rewind
// sequences against a plain-slice model and checks, after every step, that
// order is kept, that an ack never drops an entry that was not taken, and
// that a rewind makes every unconfirmed entry sendable again in order. Every
// batch Take returned must also stay byte-for-byte what it was.
func TestOutboxMatchesSliceModel(t *testing.T) {
	type entry struct {
		seq   int64
		taken bool
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := Outbox{CID: "m"}
		var model []entry
		var next int64
		type heldBatch struct {
			batch []Action
			seqs  []int64
		}
		var batches []heldBatch
		fail := func(op string, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d after %s: %s", seed, op, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 200; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "Add"
				next++
				o.Add(Action{Kind: ActionMouseMove, X: int(next)})
				model = append(model, entry{seq: next})
			case r < 6:
				op = "Take"
				batch := o.Take()
				var want []int64
				for i := range model {
					if !model[i].taken {
						want = append(want, model[i].seq)
						model[i].taken = true
					}
				}
				got := make([]int64, len(batch))
				for i, a := range batch {
					got[i] = a.CSeq
				}
				if !slices.Equal(got, want) {
					fail(op, "took %v, want the unsent tail %v", got, want)
				}
				if len(batch) > 0 {
					batches = append(batches, heldBatch{batch: batch, seqs: got})
				}
			case r < 7:
				op = "Ack"
				through := rng.Int63n(next + 2)
				o.Ack(through)
				kept := model[:0]
				for _, e := range model {
					if !(e.taken && e.seq <= through) {
						kept = append(kept, e)
					}
				}
				model = kept
			case r < 8:
				op = "AckBatch"
				if len(batches) == 0 {
					continue
				}
				b := batches[rng.Intn(len(batches))]
				o.AckBatch(b.batch)
				lo, hi := b.seqs[0], b.seqs[len(b.seqs)-1]
				kept := model[:0]
				for _, e := range model {
					if !(e.taken && e.seq >= lo && e.seq <= hi) {
						kept = append(kept, e)
					}
				}
				model = kept
			default:
				op = "Rewind"
				o.Rewind()
				for i := range model {
					model[i].taken = false
				}
			}

			// The outbox holds exactly the model's entries, in order, with
			// the taken ones as a prefix counted by the cursor.
			if o.Len() != len(model) {
				fail(op, "Len %d, model %d", o.Len(), len(model))
			}
			taken := 0
			for i, e := range model {
				if o.acts[i].CSeq != e.seq || o.acts[i].CID != "m" || o.acts[i].X != int(e.seq) {
					fail(op, "entry %d is %+v, want CSeq %d", i, o.acts[i], e.seq)
				}
				if i > 0 && model[i-1].seq >= e.seq {
					fail(op, "model out of order at %d", i)
				}
				if e.taken {
					if taken != i {
						fail(op, "taken entries are not a prefix")
					}
					taken++
				}
			}
			if o.sent != taken {
				fail(op, "cursor %d, model has %d taken", o.sent, taken)
			}
			for _, b := range batches {
				for i, a := range b.batch {
					if a.CSeq != b.seqs[i] {
						fail(op, "a batch Take returned was overwritten: %v became CSeq %d at %d", b.seqs, a.CSeq, i)
					}
				}
			}
		}
		// A final rewind-and-take sends everything still unconfirmed, in
		// order.
		o.Rewind()
		all := o.Take()
		if len(all) != len(model) {
			t.Fatalf("seed %d: final take %d entries, model %d", seed, len(all), len(model))
		}
		for i := range all {
			if all[i].CSeq != model[i].seq {
				t.Fatalf("seed %d: final take out of order at %d", seed, i)
			}
		}
	}
}

// TestOutboxStampKeepsReplays checks the stamping rules: unstamped actions
// get consecutive CSeqs under the outbox's CID, and a stamped one keeps its
// stamp and moves the counter past it.
func TestOutboxStampKeepsReplays(t *testing.T) {
	o := Outbox{CID: "me"}
	o.Add(Action{})
	o.Add(Action{CID: "me", CSeq: 7})
	o.Add(Action{})
	var got []string
	for _, a := range o.Take() {
		got = append(got, fmt.Sprintf("%s/%d", a.CID, a.CSeq))
	}
	if want := []string{"me/1", "me/7", "me/8"}; !slices.Equal(got, want) {
		t.Fatalf("stamps = %v, want %v", got, want)
	}
}

// orderPolicy applies every action and records the tracked keys in the
// order the agent's policy pipeline saw them.
type orderPolicy struct {
	mu   sync.Mutex
	keys []string
}

func (p *orderPolicy) Decide(_ string, act Action) Decision {
	if k := actionKey(act); k != "" {
		p.mu.Lock()
		p.keys = append(p.keys, k)
		p.mu.Unlock()
	}
	return Apply
}

func (p *orderPolicy) seen() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.keys...)
}

// channelUp reports whether the snippet has a channel attached.
func channelUp(s *Snippet) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.channel != nil
}

// TestQueueActionOnLiveChannel is the strand regression: an action queued
// while a healthy channel is attached must go out on that channel at once,
// reach the policy exactly once, and stay ahead of a later dispatch —
// pings keep a healthy channel open indefinitely, so waiting for the next
// attach would strand it.
func TestQueueActionOnLiveChannel(t *testing.T) {
	policy := &orderPolicy{}
	w := newWorld(t, func(a *Agent) { a.Policy = policy })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s, _, _ := duplexJoin(t, w, "queued.lan")
	waitUntil(t, "channel attached", func() bool { return channelUp(s) })

	s.QueueAction(Action{Kind: ActionMouseMove, X: 1})
	s.PointerMove(2, 0)
	// The agent acks a frame only after its actions went through the
	// policy, so an empty outbox means both were merged.
	waitUntil(t, "acks empty the outbox", func() bool { return outboxEmpty(s) })
	if got, want := policy.seen(), []string{"mm1", "mm2"}; !slices.Equal(got, want) {
		t.Fatalf("policy saw %v, want %v: the queued action exactly once, ahead of the dispatch", got, want)
	}
}

// holdGate accepts, and never forwards, every write on a connection from
// the first write containing marker onward — bytes sitting in a send
// buffer the peer never drains — until kill closes that connection. Other
// connections, and writes before the marker, pass through.
type holdGate struct {
	marker []byte
	mu     sync.Mutex
	armed  bool
	held   net.Conn
}

func (g *holdGate) dialer(dial httpwire.Dialer) httpwire.Dialer {
	return func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &holdConn{Conn: c, g: g}, nil
	}
}

func (g *holdGate) kill() {
	g.mu.Lock()
	c := g.held
	g.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

type holdConn struct {
	net.Conn
	g *holdGate
}

func (c *holdConn) Write(p []byte) (int, error) {
	g := c.g
	g.mu.Lock()
	if g.held == c.Conn || (g.armed && bytes.Contains(p, g.marker)) {
		g.held, g.armed = c.Conn, false
		g.mu.Unlock()
		return len(p), nil
	}
	g.mu.Unlock()
	return c.Conn.Write(p)
}

// TestDuplexAttachBacklogKeepsCSeqOrder is the attach reorder window: a
// channel attaches with an older action queued, and a dispatch races the
// attach flush. The backlog's frame is held in the send buffer (a large
// payload widens the window between publishing the channel and writing the
// backlog). If the dispatch's newer CSeq reaches the agent first, its
// cumulative FrameActionAck must not confirm the held older action: when
// the socket then dies, the older action must still reach the policy,
// exactly once, through the fallback poll.
func TestDuplexAttachBacklogKeepsCSeqOrder(t *testing.T) {
	policy := &countingPolicy{seen: make(map[string]int)}
	w := newWorld(t, func(a *Agent) { a.Policy = policy })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	s := w.join(t, "reorder.lan")
	if _, err := s.PollOnce(); err != nil { // synced: the attach pushes no content
		t.Fatal(err)
	}
	marker := strings.Repeat("held-backlog.", 1<<16) // ~850 KB
	gate := &holdGate{marker: []byte(marker), armed: true}
	s.Browser.Client.Dial = gate.dialer(s.Browser.Client.Dial)
	s.Delivery = DeliveryDuplex
	s.QueueAction(Action{Kind: ActionMouseMove, X: 1, Value: marker})

	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		deadline := time.Now().Add(5 * time.Second)
		for !channelUp(s) {
			if time.Now().After(deadline) {
				return
			}
		}
		s.PointerMove(2, 0)
	}()
	done := make(chan error, 1)
	go func() { done <- s.DuplexOnce(nil) }()
	<-dispatched

	// Where the dispatch overtook the backlog, the agent merges it and acks
	// its CSeq; let that ack land before the socket dies.
	deadline := time.Now().Add(300 * time.Millisecond)
	for s.Stats().DuplexFramesIn == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	gate.kill()
	<-done

	s.Delivery = DeliveryInterval
	if _, err := s.PollOnce(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mm1", "mm2"} {
		if got := policy.count(key); got != 1 {
			t.Errorf("action %s reached the policy %d times after recovery, want exactly 1", key, got)
		}
	}
}
