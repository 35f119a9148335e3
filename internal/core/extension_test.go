package core

import (
	"strings"
	"testing"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

func TestSessionThroughNATPortForward(t *testing.T) {
	// Paper §3.2.1: "a co-browsing host can still allow remote participants
	// to reach a TCP port on a private IP address inside a LAN using
	// port-forwarding techniques." The host is unreachable directly; a
	// gateway forwards a public port to the agent.
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	w.corpus.Network.DenyDialTo(agentAddr, "gw.example", "host.lan")
	fwd, err := w.corpus.Network.NewForwarder("gw.example", "gw.example:3000", agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Close)

	// Direct join from outside the LAN fails ...
	blocked := browser.New("remote.net", w.corpus.Network.Dialer("remote.net"))
	t.Cleanup(blocked.Close)
	direct := NewSnippet(blocked, "http://"+agentAddr, "")
	if err := direct.Join(); err == nil {
		t.Fatal("direct join through the NAT should fail")
	}

	// ... but the forwarded public address works end to end.
	pb := browser.New("remote.net", w.corpus.Network.Dialer("remote.net"))
	t.Cleanup(pb.Close)
	alice := NewSnippet(pb, "http://gw.example:3000", "")
	if err := alice.Join(); err != nil {
		t.Fatal(err)
	}
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	err = alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		title := doc.Head().FirstChildElement("title")
		if title == nil || !strings.Contains(title.TextContent(), "google.com") {
			t.Errorf("content not synced through forward: %v", title)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDualRoleTopology(t *testing.T) {
	// Paper §3.3: "A user can even host a co-browsing session and meanwhile
	// join sessions hosted by other users using different browser windows
	// or tabs." Bob hosts session A; with a second browser window he joins
	// Carol's session B.
	w := newWorld(t, nil) // Bob's hosted session (agentAddr)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	// Carol hosts her own session on another port.
	carolBrowser := browser.New("carol.lan", w.corpus.Network.Dialer("carol.lan"))
	t.Cleanup(carolBrowser.Close)
	carolAgent := NewAgent(carolBrowser, "carol.lan:3000")
	l, err := w.corpus.Network.Listen("carol.lan:3000")
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: carolAgent}
	srv.Start(l)
	t.Cleanup(srv.Close)
	if _, err := carolBrowser.Navigate("http://" + sites.ShopHost + "/"); err != nil {
		t.Fatal(err)
	}

	// Alice participates in Bob's session.
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// Bob's second window joins Carol's session — Bob is host and
	// participant simultaneously.
	bobTab2 := browser.New("host.lan", w.corpus.Network.Dialer("host.lan"))
	t.Cleanup(bobTab2.Close)
	bobAsParticipant := NewSnippet(bobTab2, "http://carol.lan:3000", "")
	if err := bobAsParticipant.Join(); err != nil {
		t.Fatal(err)
	}
	if updated, err := bobAsParticipant.PollOnce(); err != nil || !updated {
		t.Fatalf("bob-as-participant: updated=%v err=%v", updated, err)
	}

	// Both directions keep working after interleaved activity.
	w.hostNavigate(t, "http://"+sites.Table1[2].Host()+"/")
	if updated, err := alice.PollOnce(); err != nil || !updated {
		t.Fatalf("alice: updated=%v err=%v", updated, err)
	}
	err = bobTab2.WithDocument(func(_ string, doc *dom.Document) error {
		if !strings.Contains(dom.InnerHTML(doc.Body()), "Everything Store") {
			t.Error("bob's participant window lost carol's content")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
