package core

// Native fuzz targets for the agent's untrusted inputs beyond the delta
// codec: the session state ImportState decodes (rcb-host -restore reads it
// from disk, the handover receiver from the network) and the form body a
// participant sends to POST /poll, /action and /channel. Arbitrary input
// must produce an error or a documented answer, never a panic. The seeds
// are added in code (the state seed is a live export); crashers are checked
// in under testdata/fuzz/ and replay on plain `go test`; `make fuzz`
// mutates the seeds.

import (
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// fuzzPage is the host document of the fuzzing agents: small, with a head,
// a form and an image so every content section is populated.
const fuzzPage = `<html><head><title>fuzz</title></head><body>` +
	`<p id="a">one</p><form action="/f"><input name="q"></form><img src="/i.png"></body></html>`

// offlineAgent returns an agent whose host browser holds fuzzPage and has
// no network: nothing a fuzz iteration does leaves the process.
func offlineAgent(tb testing.TB) *Agent {
	tb.Helper()
	b := browser.New("host.lan", func(string) (net.Conn, error) { return nil, errors.New("offline") })
	b.SetDocument("http://site.lan/", dom.Parse(fuzzPage))
	a := NewAgent(b, agentAddr)
	a.MaxPollWait = 2 * time.Millisecond
	tb.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a
}

// exportedSession drives an offline agent into a state covering every
// section of the codec — two participants, a delta-base ring, a mirrored
// action waiting in an outbox, replay-filter entries — and exports it.
func exportedSession(tb testing.TB) []byte {
	tb.Helper()
	a := offlineAgent(tb)
	alice, bob := wireJoin(tb, a), wireJoin(tb, a)
	for i := 0; i < 3; i++ {
		if i > 0 {
			if err := a.Browser.ApplyMutation(func(doc *dom.Document) error {
				doc.Body().SetAttr("data-rev", strconv.Itoa(i))
				return nil
			}); err != nil {
				tb.Fatal(err)
			}
		}
		a.ServeWire(pollRequest(alice, "delta=1&ts="+strconv.FormatInt(a.LatestDocTime(), 10)))
		a.ServeWire(pollRequest(bob, "ts=0"))
	}
	act := EncodeActions([]Action{{Kind: ActionMouseMove, X: 3, Y: 4, CID: "c-alice", CSeq: 1}})
	a.ServeWire(pollRequest(alice, httpwire.EncodeForm([]httpwire.FormField{{Name: "actions", Value: act}})))
	data, err := a.ExportState()
	if err != nil {
		tb.Fatal(err)
	}
	for _, section := range []string{`"ring"`, `"outbox"`, `"dedup"`} {
		if !strings.Contains(string(data), section) {
			tb.Fatalf("seed export lacks %s: %s", section, data)
		}
	}
	return data
}

// FuzzImportState feeds arbitrary bytes to ImportState on a fresh agent.
// Import must fail cleanly or succeed; after a successful import a join, a
// poll from the new participant, delta polls from the imported ones and a
// re-export must not panic either.
func FuzzImportState(f *testing.F) {
	seed := exportedSession(f)
	f.Add(seed)
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`{"schema":1,"participants":[{"id":""},{"id":"p1"},{"id":"p1"}],"prepared":[{"xml":"<newContent>","ring":[{"docTime":-1}]}]}`))
	f.Add([]byte(`{"schema":1,"dedup":[{"cid":"x","recent":[5,5,-1]}],"pending":[{"seq":-3}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzStateSizeCap {
			t.Skip()
		}
		a := offlineAgent(t)
		if err := a.ImportState(data); err != nil {
			return
		}
		pid := wireJoin(t, a)
		a.ServeWire(pollRequest(pid, "ts=0&delta=1"))
		for _, p := range a.Participants() {
			a.ServeWire(pollRequest(p.ID, "delta=1&ts="+strconv.FormatInt(p.LastDocTime, 10)))
		}
		if _, err := a.ExportState(); err != nil {
			t.Fatalf("re-export after a successful import: %v", err)
		}
	})
}

// fuzzStateSizeCap bounds state inputs: a real two-participant export of
// fuzzPage is a few KB.
const fuzzStateSizeCap = 1 << 16

// routeStatuses are the statuses the agent documents for the participant
// routes a form body reaches, each with every close reason's status:
// content or empty (200), a malformed action payload (400), a failed HMAC
// (401) and content generation failure (500) for a poll; the ack (200) and
// the malformed or empty payload (400) for an action; the upgrade (101) for
// a channel.
func routeStatuses() map[string]map[int]bool {
	routes := map[string]map[int]bool{
		"/poll":    {200: true, 400: true, 401: true, 500: true},
		"/action":  {200: true, 400: true, 401: true},
		"/channel": {101: true, 401: true},
	}
	for _, ok := range routes {
		for r := range closeReasonNames {
			ok[r.StatusCode()] = true
		}
	}
	return routes
}

// FuzzServePoll sends each arbitrary form body from a joined participant to
// POST /poll through ServeWireAsync with a short poll cap, then to POST
// /action and POST /channel (whose upgrade's Hijack is not run). Every
// request must be answered exactly once with a status documented for its
// route.
func FuzzServePoll(f *testing.F) {
	act := EncodeActions([]Action{{Kind: ActionClick, Target: "a", CID: "c", CSeq: 1}})
	f.Add("ts=0")
	f.Add("ts=0&delta=1")
	f.Add("ts=99999999999999&wait=5")
	f.Add("ts=1&delta=1&wait=-7")
	f.Add(httpwire.EncodeForm([]httpwire.FormField{{Name: "ts", Value: "0"}, {Name: "wait", Value: "100"}, {Name: "actions", Value: act}}))
	f.Add("actions=%5Bnotjson&ts=x")
	f.Add("pid=p9&ts=-1&delta=1&wait=1")
	f.Add("actions=%5B%5D")
	statuses := routeStatuses()

	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > fuzzPollSizeCap {
			t.Skip()
		}
		a := offlineAgent(t)
		pid := wireJoin(t, a)
		a.ServeWire(pollRequest(pid, "ts=0"))

		var answers [3]atomic.Int32
		for i, route := range []string{"/poll", "/action", "/channel"} {
			// Room for a second answer, so a double respond is counted, not
			// blocked.
			done := make(chan *httpwire.Response, 2)
			req := pollRequest(pid, body)
			req.Target = route
			a.ServeWireAsync(req, func(resp *httpwire.Response) {
				answers[i].Add(1)
				done <- resp
			})
			select {
			case resp := <-done:
				if !statuses[route][resp.StatusCode] {
					t.Fatalf("%s %q answered with undocumented status %d", route, body, resp.StatusCode)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s %q was never answered (MaxPollWait %v)", route, body, a.MaxPollWait)
			}
		}
		// Closing the hub answers anything still parked: a request that was
		// both answered and left parked would respond a second time here.
		a.Close()
		for i, route := range []string{"/poll", "/action", "/channel"} {
			if n := answers[i].Load(); n != 1 {
				t.Fatalf("%s %q answered %d times, want exactly once", route, body, n)
			}
		}
	})
}

// fuzzPollSizeCap bounds poll bodies; real polls are well under 1 KB
// unless they carry a form submission.
const fuzzPollSizeCap = 1 << 14

// FuzzChannelUpstream feeds an arbitrary ACTIONS payload and an arbitrary
// ACK payload to an attached channel. The agent must not panic; it must
// answer the ACTIONS frame with a FrameActionAck exactly when the payload
// decodes to actions carrying a replay stamp, naming their highest CSeq —
// so a malformed frame gets none; and the channel must still deliver a
// content frame for the next document change.
func FuzzChannelUpstream(f *testing.F) {
	f.Add(EncodeActions([]Action{{Kind: ActionMouseMove, X: 1, CID: "c", CSeq: 3}, {Kind: ActionMouseMove, X: 2, CID: "c", CSeq: 2}}), "7")
	f.Add(`[{"kind":"forminput","target":"1.2","value":"v","cid":"c","cseq":1}]`, "0")
	f.Add(`[{"kind":"mousemove"}]`, "")
	f.Add(`[notjson`, "-5")
	f.Add(`[]`, "99999999999999999999")
	f.Add(`{"kind":"click"}`, "x")

	f.Fuzz(func(t *testing.T, actions, ack string) {
		if len(actions) > fuzzPollSizeCap || len(ack) > 64 {
			t.Skip()
		}
		a := offlineAgent(t)
		pid := wireJoin(t, a)
		server, client := net.Pipe()
		ran := make(chan struct{})
		go func() {
			defer close(ran)
			a.runChannel(httpwire.NewChannelConn(server, nil), pid, 0, false)
		}()
		ch := httpwire.NewChannelConn(client, nil)
		// The agent's reader writes action acks, and its writer content, on
		// the same synchronous pipe while this goroutine writes frames; the
		// buffer lets the frame reader keep draining meanwhile. An iteration
		// draws one frame per edit at most, well under its size.
		frames := make(chan httpwire.Frame, 1024)
		quit := make(chan struct{})
		defer func() {
			close(quit)
			ch.Close()
			<-ran
		}()
		go func() {
			for {
				fr, err := ch.ReadFrame()
				if err != nil {
					close(frames)
					return
				}
				select {
				case frames <- fr:
				case <-quit:
					return
				}
			}
		}()
		next := func(what string) httpwire.Frame {
			t.Helper()
			select {
			case fr, ok := <-frames:
				if !ok {
					t.Fatalf("channel ended waiting for %s (actions %q, ack %q)", what, actions, ack)
				}
				return fr
			case <-time.After(5 * time.Second):
				t.Fatalf("no frame for %s (actions %q, ack %q)", what, actions, ack)
			}
			return httpwire.Frame{}
		}
		first := next("the initial snapshot")
		initial, err := Unmarshal(first.Payload)
		if first.Type != FrameContent || err != nil {
			t.Fatalf("initial frame type %d: %v", first.Type, err)
		}

		var wantAck string
		if decoded, err := DecodeActions(actions); err == nil {
			var maxSeq int64
			for _, act := range decoded {
				maxSeq = max(maxSeq, act.CSeq)
			}
			if maxSeq > 0 {
				wantAck = strconv.FormatInt(maxSeq, 10)
			}
		}
		for _, fr := range []httpwire.Frame{{Type: FrameActions, Payload: []byte(actions)}, {Type: FrameAck, Payload: []byte(ack)}} {
			if err := ch.WriteFrame(fr); err != nil {
				t.Fatalf("write frame %d: %v", fr.Type, err)
			}
		}
		if err := a.Browser.ApplyMutation(func(doc *dom.Document) error {
			doc.Body().SetAttr("data-fuzz", "1")
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		var acks []string
		for {
			fr := next("a content frame after the upstream frames")
			switch fr.Type {
			case FrameActionAck:
				acks = append(acks, string(fr.Payload))
				continue
			case FrameContent:
			default:
				t.Fatalf("unexpected frame type %d (actions %q, ack %q)", fr.Type, actions, ack)
			}
			c, err := Unmarshal(fr.Payload)
			if err != nil {
				t.Fatalf("content frame: %v", err)
			}
			// The snapshot carrying our edit was built after the ACK frame
			// was read, so every ack the ACTIONS frame drew is already in.
			if c.DocTime > initial.DocTime && c.Body != nil && slices.Contains(c.Body.Attrs, dom.Attr{Name: "data-fuzz", Value: "1"}) {
				break
			}
		}
		switch {
		case wantAck == "" && len(acks) > 0:
			t.Fatalf("ACTIONS %q drew acks %v, want none", actions, acks)
		case wantAck != "" && (len(acks) != 1 || acks[0] != wantAck):
			t.Fatalf("ACTIONS %q drew acks %v, want [%s]", actions, acks, wantAck)
		}
	})
}
