package core

// Native fuzz targets for the agent's untrusted inputs beyond the delta
// codec: the session state ImportState decodes (rcb-host -restore reads it
// from disk, the handover receiver from the network) and the POST /poll
// form a participant sends. Arbitrary input must produce an error or a
// documented answer, never a panic. The seeds are added in code (the state
// seed is a live export); crashers are checked in under testdata/fuzz/ and
// replay on plain `go test`; `make fuzz` mutates the seeds.

import (
	"errors"
	"net"
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

// pollStatuses are the statuses the agent documents for a POST /poll:
// content or empty (200), a malformed action payload (400), a failed HMAC
// (401), content generation failure (500), and every close reason's status.
func pollStatuses() map[int]bool {
	ok := map[int]bool{200: true, 400: true, 401: true, 500: true}
	for r := range closeReasonNames {
		ok[r.StatusCode()] = true
	}
	return ok
}

// FuzzServePoll sends arbitrary POST /poll bodies from a joined participant
// through ServeWireAsync with a short poll cap. Every request must be
// answered exactly once with a documented status.
func FuzzServePoll(f *testing.F) {
	act := EncodeActions([]Action{{Kind: ActionClick, Target: "a", CID: "c", CSeq: 1}})
	f.Add("ts=0")
	f.Add("ts=0&delta=1")
	f.Add("ts=99999999999999&wait=5")
	f.Add("ts=1&delta=1&wait=-7")
	f.Add(httpwire.EncodeForm([]httpwire.FormField{{Name: "ts", Value: "0"}, {Name: "wait", Value: "100"}, {Name: "actions", Value: act}}))
	f.Add("actions=%5Bnotjson&ts=x")
	f.Add("pid=p9&ts=-1&delta=1&wait=1")
	statuses := pollStatuses()

	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > fuzzPollSizeCap {
			t.Skip()
		}
		a := offlineAgent(t)
		pid := wireJoin(t, a)
		a.ServeWire(pollRequest(pid, "ts=0"))

		var answers atomic.Int32
		// Room for a second answer, so a double respond is counted, not
		// blocked.
		done := make(chan *httpwire.Response, 2)
		a.ServeWireAsync(pollRequest(pid, body), func(resp *httpwire.Response) {
			answers.Add(1)
			done <- resp
		})
		select {
		case resp := <-done:
			if !statuses[resp.StatusCode] {
				t.Fatalf("poll %q answered with undocumented status %d", body, resp.StatusCode)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("poll %q was never answered (MaxPollWait %v)", body, a.MaxPollWait)
		}
		// Closing the hub answers anything still parked: a poll that was
		// both answered and left parked would respond a second time here.
		a.Close()
		if n := answers.Load(); n != 1 {
			t.Fatalf("poll %q answered %d times, want exactly once", body, n)
		}
	})
}

// fuzzPollSizeCap bounds poll bodies; real polls are well under 1 KB
// unless they carry a form submission.
const fuzzPollSizeCap = 1 << 14
