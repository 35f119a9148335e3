package core

// Subscriber-set tests: one participant long-polls, another holds a
// persistent channel, and every delivery event — a host change, a mirrored
// action, a kick, agent shutdown, load evaluation, a re-upgrade — must
// reach both kinds of subscriber the same way.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// subscriberPair is a world with one parked poll and one attached channel.
type subscriberPair struct {
	w        *world
	pollPID  string
	chanPID  string
	conn     *httpwire.ChannelConn
	pollDone chan *httpwire.Response
}

// wireJoin joins a participant at the wire level and returns its pid.
func wireJoin(tb testing.TB, a *Agent) string {
	tb.Helper()
	resp := a.ServeWire(httpwire.NewRequest("GET", "/"))
	pid, _, _ := strings.Cut(strings.TrimPrefix(resp.Header.Get("Set-Cookie"), "rcbpid="), ";")
	if resp.StatusCode != 200 || pid == "" {
		tb.Fatalf("join returned %d, cookie %q", resp.StatusCode, resp.Header.Get("Set-Cookie"))
	}
	return pid
}

// pollRequest builds a POST /poll for pid with a form body.
func pollRequest(pid, body string) *httpwire.Request {
	req := httpwire.NewRequest("POST", "/poll")
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Cookie", "rcbpid="+pid)
	req.Body = []byte(body)
	return req
}

// rawChannel upgrades pid to a persistent channel over the simulated
// network and consumes the initial full snapshot.
func rawChannel(t *testing.T, w *world, pid string) *httpwire.ChannelConn {
	t.Helper()
	client := httpwire.NewClient(w.corpus.Network.Dialer(pid + ".lan"))
	req := httpwire.NewRequest("POST", "/channel")
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Cookie", "rcbpid="+pid)
	req.Body = []byte("ts=0")
	conn, resp, err := client.Upgrade(agentAddr, req, 5*time.Second)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if conn == nil {
		t.Fatalf("upgrade refused with %d", resp.StatusCode)
	}
	t.Cleanup(func() { conn.Close() })
	if f := readDelivery(t, conn); f.Type != FrameContent {
		t.Fatalf("initial channel frame type %d, want content", f.Type)
	}
	return conn
}

// readDelivery reads the next content, delta or close frame.
func readDelivery(t *testing.T, conn *httpwire.ChannelConn) httpwire.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := conn.ReadFrame()
		if err != nil {
			t.Fatalf("channel read: %v", err)
		}
		switch f.Type {
		case FrameContent, FrameDelta, FrameClose:
			return f
		}
	}
}

// parkPoll parks one long-poll for pid acknowledging the current build.
func parkPoll(t *testing.T, w *world, pid string) chan *httpwire.Response {
	t.Helper()
	req := pollRequest(pid, "ts=0")
	if resp := w.agent.ServeWire(req); resp.StatusCode != 200 {
		t.Fatalf("initial sync returned %d", resp.StatusCode)
	}
	before := w.agent.ParkedPolls()
	req.Body = []byte("ts=" + strconv.FormatInt(w.agent.LatestDocTime(), 10) + "&wait=10000")
	done := make(chan *httpwire.Response, 1)
	w.agent.ServeWireAsync(req, func(resp *httpwire.Response) { done <- resp })
	waitUntil(t, "poll parked", func() bool { return w.agent.ParkedPolls() == before+1 })
	return done
}

func newSubscriberPair(t *testing.T, configure func(*Agent)) *subscriberPair {
	t.Helper()
	w := newWorld(t, configure)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	sp := &subscriberPair{w: w, pollPID: wireJoin(t, w.agent), chanPID: wireJoin(t, w.agent)}
	sp.conn = rawChannel(t, w, sp.chanPID)
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })
	sp.pollDone = parkPoll(t, w, sp.pollPID)
	return sp
}

// pollAnswer waits for the parked poll's response.
func (sp *subscriberPair) pollAnswer(t *testing.T) *httpwire.Response {
	t.Helper()
	select {
	case resp := <-sp.pollDone:
		return resp
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll was never answered")
		return nil
	}
}

func TestSubscriberSetHostChange(t *testing.T) {
	sp := newSubscriberPair(t, nil)
	if err := sp.w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-subscribers", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if resp := sp.pollAnswer(t); resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "data-subscribers") {
		t.Fatalf("poll answer %d carries no new content: %.80q", resp.StatusCode, resp.Body)
	}
	if f := readDelivery(t, sp.conn); f.Type != FrameContent || !strings.Contains(string(f.Payload), "data-subscribers") {
		t.Fatalf("channel frame type %d carries no new content", f.Type)
	}
}

func TestSubscriberSetMirroredAction(t *testing.T) {
	sp := newSubscriberPair(t, nil)
	sp.w.agent.HostAction(Action{Kind: ActionMouseMove, X: 41, Y: 42})
	mirrored := func(what string, body []byte) {
		t.Helper()
		nc, err := Unmarshal(body)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(nc.UserActions) != 1 || nc.UserActions[0].X != 41 || nc.UserActions[0].From != "host" {
			t.Fatalf("%s carries actions %+v, want the host's mousemove", what, nc.UserActions)
		}
	}
	resp := sp.pollAnswer(t)
	if resp.StatusCode != 200 {
		t.Fatalf("poll answer status %d", resp.StatusCode)
	}
	mirrored("poll answer", resp.Body)
	f := readDelivery(t, sp.conn)
	if f.Type != FrameContent {
		t.Fatalf("channel frame type %d, want content", f.Type)
	}
	mirrored("channel frame", f.Payload)
}

func TestSubscriberSetKick(t *testing.T) {
	sp := newSubscriberPair(t, nil)
	sp.w.agent.DisconnectWith(sp.pollPID, CloseKicked)
	sp.w.agent.DisconnectWith(sp.chanPID, CloseKicked)
	if resp := sp.pollAnswer(t); resp.Header.Get(CloseReasonHeader) != CloseKicked.String() {
		t.Fatalf("poll answer %d carries reason %q, want KICKED", resp.StatusCode, resp.Header.Get(CloseReasonHeader))
	}
	f := readDelivery(t, sp.conn)
	if f.Type != FrameClose || decodeCloseSignal(f.Payload).reason != CloseKicked {
		t.Fatalf("channel frame type %d payload %q, want a KICKED close", f.Type, f.Payload)
	}
}

func TestSubscriberSetAgentClose(t *testing.T) {
	sp := newSubscriberPair(t, nil)
	sp.w.agent.Close()
	if resp := sp.pollAnswer(t); resp.Header.Get(CloseReasonHeader) != CloseAgentClosing.String() {
		t.Fatalf("poll answer carries reason %q, want AGENT_CLOSING", resp.Header.Get(CloseReasonHeader))
	}
	f := readDelivery(t, sp.conn)
	if f.Type != FrameClose || decodeCloseSignal(f.Payload).reason != CloseAgentClosing {
		t.Fatalf("channel frame type %d payload %q, want an AGENT_CLOSING close", f.Type, f.Payload)
	}
}

// TestSubscriberSetLoadSignal: the shed ladder's parked signal counts both
// kinds — with the high watermark at 2, one channel alone holds the ladder
// and a channel plus a parked poll climbs it.
func TestSubscriberSetLoadSignal(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.Shed = ShedWatermarks{ParkedHigh: 2, ParkedLow: 1} })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	pollPID, chanPID := wireJoin(t, w.agent), wireJoin(t, w.agent)
	rawChannel(t, w, chanPID)
	waitUntil(t, "channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })
	if lvl := w.agent.EvaluateLoad(); lvl != ShedNone {
		t.Fatalf("one channel climbed the ladder to %s", lvl)
	}
	parkPoll(t, w, pollPID)
	if lvl := w.agent.EvaluateLoad(); lvl < ShedNoDelta {
		t.Fatalf("a channel and a parked poll left the ladder at %s; both must count", lvl)
	}
}

// TestSubscriberSetReupgrade: a second upgrade from the same participant
// replaces the first channel, which is torn down without a close frame; the
// open-channel count settles at 1 and the new channel keeps delivering.
func TestSubscriberSetReupgrade(t *testing.T) {
	detached := make(chan struct{}, 1)
	w := newWorld(t, func(a *Agent) {
		a.Logf = func(format string, _ ...any) {
			if strings.HasSuffix(format, "channel detached") {
				select {
				case detached <- struct{}{}:
				default:
				}
			}
		}
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	pid := wireJoin(t, w.agent)
	old := rawChannel(t, w, pid)
	waitUntil(t, "first channel attached", func() bool { return w.agent.ChannelsOpen() == 1 })
	cur := rawChannel(t, w, pid)

	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := old.ReadFrame()
		if err != nil {
			if ne, ok := err.(interface{ Timeout() bool }); ok && ne.Timeout() {
				t.Fatal("replaced channel was not torn down")
			}
			break
		}
		if f.Type == FrameClose {
			t.Fatalf("replaced channel got a close frame %q; teardown must be silent", f.Payload)
		}
	}
	select {
	case <-detached:
	case <-time.After(5 * time.Second):
		t.Fatal("replaced channel never detached")
	}
	if n := w.agent.ChannelsOpen(); n != 1 {
		t.Fatalf("ChannelsOpen = %d once the replaced channel detached, want 1", n)
	}

	if err := w.host.ApplyMutation(func(doc *dom.Document) error {
		doc.Body().SetAttr("data-reupgrade", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if f := readDelivery(t, cur); f.Type != FrameContent || !strings.Contains(string(f.Payload), "data-reupgrade") {
		t.Fatalf("replacing channel frame type %d carries no new content", f.Type)
	}
}
