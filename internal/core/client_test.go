package core

// The protocol client shared by the browser Snippet and the DOM-free
// docTime document: a wire pin proving both documents put the same bytes on
// the wire, and a docTime client scenario through every route of the
// client's state machine against in-process agents.

import (
	"bytes"
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
	"rcb/internal/sites"
)

// tapConn records every byte a client writes.
type tapConn struct {
	net.Conn
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// tap is a dialer wrapper whose take returns (and forgets) what was written.
type tap struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *tap) dialer(dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &tapConn{Conn: c, mu: &t.mu, buf: &t.buf}, nil
	}
}

func (t *tap) take() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.buf.String()
	t.buf.Reset()
	return s
}

// pinAgent is a stand-in agent that hands every joiner the same identity
// and answers every poll empty, so two clients can be brought to the same
// protocol state.
func pinAgent(t *testing.T, n *netsim.Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		if req.Method == "GET" {
			resp := httpwire.NewResponse(200, "text/html",
				[]byte(`<html><head><script id="rcb-ajax-snippet"></script></head><body></body></html>`))
			resp.Header.Set("Set-Cookie", "rcbpid=p7; Path=/")
			return resp
		}
		return httpwire.NewResponse(200, "text/xml", nil)
	})}
	srv.Start(l)
	t.Cleanup(srv.Close)
}

// TestSnippetAndDocTimeClientWireIdentical pins the wire of the one protocol
// client: in the same state (ts, delta advertised, queued actions, wait),
// the browser Snippet and the DOM-free docTime client write byte-identical
// /poll requests, both equal to the form scenlab's hand-written driver
// used to send, and the docTime join is exactly its bare GET /.
func TestSnippetAndDocTimeClientWireIdentical(t *testing.T) {
	n := netsim.NewNetwork()
	const addr = "pin.lan:3000"
	pinAgent(t, n, addr)
	act := Action{Kind: ActionMouseMove, X: 3, Y: 4}
	cases := []struct {
		name    string
		mode    DeliveryMode
		noDelta bool
		ts      int64
		actions int
	}{
		{"interval-first", DeliveryInterval, false, 0, 0},
		{"interval-actions", DeliveryInterval, false, 1234, 2},
		{"longpoll-parks", DeliveryLongPoll, false, 1234, 0},
		{"longpoll-actions-park", DeliveryLongPoll, true, 1234, 1},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st, dt tap
			loc := "pin" + strconv.Itoa(i)
			b := browser.New(loc+"s.lan", st.dialer(n.Dialer(loc+"s.lan")))
			t.Cleanup(b.Close)
			hc := httpwire.NewClient(dt.dialer(n.Dialer(loc + "d.lan")))
			t.Cleanup(hc.Close)
			snip := NewSnippet(b, "http://"+addr, "")
			doc := NewDocTimeClient(hc, "http://"+addr, nil)
			if err := snip.Join(); err != nil {
				t.Fatal(err)
			}
			if err := doc.Join(); err != nil {
				t.Fatal(err)
			}
			if got := dt.take(); got != "GET / HTTP/1.1\r\n\r\n" {
				t.Fatalf("docTime join wrote %q, want the bare GET /", got)
			}
			st.take()
			for _, c := range []*Client{&snip.wireClient, doc} {
				c.ClientID = "pin"
				c.Delivery = tc.mode
				c.DisableDelta = tc.noDelta
				c.LongPollWait = 2 * time.Second
				c.mu.Lock()
				c.docTime = tc.ts
				c.mu.Unlock()
				for k := 0; k < tc.actions; k++ {
					c.QueueAction(act)
				}
				if _, err := c.PollOnce(); err != nil {
					t.Fatal(err)
				}
			}
			got, want := st.take(), dt.take()
			if got != want {
				t.Fatalf("snippet and docTime client polls differ:\nsnippet: %q\ndocTime: %q", got, want)
			}
			// The request the hand-written lite driver used to build.
			fields := []httpwire.FormField{{Name: "ts", Value: strconv.FormatInt(tc.ts, 10)}}
			if !tc.noDelta && tc.ts > 0 {
				fields = append(fields, httpwire.FormField{Name: "delta", Value: "1"})
			}
			if tc.actions > 0 {
				var acts []Action
				for k := 0; k < tc.actions; k++ {
					a := act
					a.CID, a.CSeq = "pin", int64(k+1)
					acts = append(acts, a)
				}
				fields = append(fields, httpwire.FormField{Name: "actions", Value: EncodeActions(acts)})
			}
			if tc.mode == DeliveryLongPoll {
				fields = append(fields, httpwire.FormField{Name: "wait", Value: "2000"})
			}
			req := httpwire.NewRequest("POST", "/poll")
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Header.Set("Cookie", "rcbpid=p7")
			req.Body = []byte(httpwire.EncodeForm(fields))
			var ref bytes.Buffer
			if err := httpwire.WriteRequest(&ref, req); err != nil {
				t.Fatal(err)
			}
			if tc.actions > 0 && tc.mode == DeliveryLongPoll {
				// The actions left at once on a poll of their own that asks
				// for the hang; its empty answer installed nothing, so
				// PollOnce then parks with the plain long-poll request.
				req.Body = []byte(httpwire.EncodeForm([]httpwire.FormField{
					{Name: "ts", Value: strconv.FormatInt(tc.ts, 10)},
					{Name: "wait", Value: "2000"},
				}))
				if err := httpwire.WriteRequest(&ref, req); err != nil {
					t.Fatal(err)
				}
			}
			if want != ref.String() {
				t.Fatalf("docTime client poll:\n got %q\nwant %q", want, ref.String())
			}
		})
	}
}

// front serves an agent at its own address through a handler that can
// tamper with the answers: shift a delta's base by one, or refuse every
// request with a bare 503.
type front struct {
	mode atomic.Int32 // frontPass, frontShiftBase, frontBare
}

const (
	frontPass = iota
	frontShiftBase
	frontBare
)

func newFront(t *testing.T, n *netsim.Network, addr string, a *Agent) *front {
	t.Helper()
	fr := &front{}
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		switch fr.mode.Load() {
		case frontBare:
			return httpwire.NewResponse(503, "text/plain", []byte("unavailable\n"))
		case frontShiftBase:
			resp := a.ServeWire(req)
			m, err := readMsgHeader(resp.Body)
			if err != nil || !m.delta {
				return resp
			}
			// Same length, so the header's Content-Length still holds.
			old := "<baseDocTime>" + strconv.FormatInt(m.base, 10)
			shifted := "<baseDocTime>" + strconv.FormatInt(m.base^1, 10)
			body := bytes.Replace(resp.Body, []byte(old), []byte(shifted), 1)
			return httpwire.NewResponse(resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		return a.ServeWire(req)
	})}
	srv.Start(l)
	t.Cleanup(srv.Close)
	return fr
}

// TestDocTimeClientScenario drives the DOM-free client through every route
// of the shared state machine against in-process agents: a bare refusal at
// join comes back typed; join → full → delta; a delta patched against a
// base the client did not acknowledge is refused with ErrDeltaBase and
// resynced in full; MOVED is followed to the relocation target; and a bare
// refusal of a poll comes back as a BareStatusError that schedules nothing.
func TestDocTimeClientScenario(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	n := w.corpus.Network
	fr := newFront(t, n, "front.lan:3000", w.agent)
	recv := newReceiver(t, w, "recv.lan", "", nil)
	fr2 := newFront(t, n, "front2.lan:3000", recv.agent)

	var synced []int64
	var syncMu sync.Mutex
	hc := httpwire.NewClient(n.Dialer("dt.lan"))
	t.Cleanup(hc.Close)
	c := NewDocTimeClient(hc, "http://front.lan:3000", func(ts int64) {
		syncMu.Lock()
		synced = append(synced, ts)
		syncMu.Unlock()
	})
	mutate := func(v string) {
		t.Helper()
		if err := w.host.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-step", v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	poll := func(wantUpdated bool) {
		t.Helper()
		updated, err := c.PollOnce()
		if err != nil || updated != wantUpdated {
			t.Fatalf("poll: updated=%v err=%v, want updated=%v", updated, err, wantUpdated)
		}
	}

	// A join refused without a close reason.
	fr.mode.Store(frontBare)
	var bare *BareStatusError
	if err := c.Join(); !errors.As(err, &bare) || bare.Status != 503 {
		t.Fatalf("bare join refusal: %v, want a BareStatusError 503", err)
	}
	fr.mode.Store(frontPass)

	// Join, full snapshot, delta.
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if c.ParticipantID() == "" {
		t.Fatal("join adopted no rcbpid")
	}
	poll(true)
	if got, want := c.DocTime(), w.agent.LatestDocTime(); got != want {
		t.Fatalf("after the full sync docTime %d, want %d", got, want)
	}
	mutate("delta")
	poll(true)
	if st := c.Stats(); st.ContentPolls != 2 || st.DeltaPolls != 1 {
		t.Fatalf("after the delta: content=%d delta=%d, want 2/1", st.ContentPolls, st.DeltaPolls)
	}

	// A delta against a base the client never acknowledged.
	held := c.DocTime()
	mutate("mismatch")
	fr.mode.Store(frontShiftBase)
	if _, err := c.PollOnce(); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("shifted base: %v, want ErrDeltaBase", err)
	}
	fr.mode.Store(frontPass)
	if c.DocTime() != 0 {
		t.Fatalf("base mismatch kept docTime %d, want 0 (resync)", c.DocTime())
	}
	poll(true)
	if got, want := c.DocTime(), w.agent.LatestDocTime(); got != want || got == held {
		t.Fatalf("resync docTime %d, want the latest %d", got, want)
	}
	if st := c.Stats(); st.DeltaPolls != 1 || st.ContentPolls != 3 {
		t.Fatalf("after the resync: content=%d delta=%d, want 3/1", st.ContentPolls, st.DeltaPolls)
	}

	// Handover: the old agent answers MOVED and the client follows.
	if err := w.agent.HandoverTo(handoverClient(w), "front2.lan:3000"); err != nil {
		t.Fatal(err)
	}
	_, err := c.PollOnce()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Reason != CloseMoved || ce.Relocate != "front2.lan:3000" {
		t.Fatalf("poll at the old agent: %v, want MOVED to front2.lan:3000", err)
	}
	if !c.RejoinNeeded() {
		t.Fatal("MOVED scheduled no rejoin")
	}
	if err := c.Rejoin(); err != nil {
		t.Fatal(err)
	}
	if got := c.CurrentAgentURL(); got != "http://front2.lan:3000" {
		t.Fatalf("relocated to %q", got)
	}
	poll(true)
	if got, want := c.DocTime(), recv.agent.LatestDocTime(); got != want {
		t.Fatalf("after relocation docTime %d, want %d", got, want)
	}
	if st := c.Stats(); st.Relocates != 1 || st.Rejoins != 1 {
		t.Fatalf("relocates=%d rejoins=%d, want 1/1", st.Relocates, st.Rejoins)
	}

	// A poll refused without a close reason.
	fr2.mode.Store(frontBare)
	_, err = c.PollOnce()
	if !errors.As(err, &bare) || bare.Status != 503 || CloseReasonOf(err) != CloseNone {
		t.Fatalf("bare poll refusal: %v, want a BareStatusError 503", err)
	}
	if c.RejoinNeeded() {
		t.Fatal("a bare refusal scheduled a rejoin")
	}

	// onSync saw every content docTime, and never the refused delta's.
	syncMu.Lock()
	defer syncMu.Unlock()
	if len(synced) != 4 || synced[2] <= synced[1] {
		t.Fatalf("onSync saw %v, want the 4 content docTimes", synced)
	}
}
