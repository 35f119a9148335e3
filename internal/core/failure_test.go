package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/netsim"
	"rcb/internal/sites"
)

func TestSessionFramesetSync(t *testing.T) {
	w := newWorld(t, nil)
	spec := sites.Table1[1]
	w.hostNavigate(t, "http://"+spec.Host()+"/frames.html")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	err := alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Body() != nil {
			t.Error("participant body must be removed for a frameset page")
		}
		fs := doc.Root.FirstChildElement("frameset")
		if fs == nil {
			t.Fatal("participant has no frameset")
		}
		if frames := fs.ElementsByTag("frame"); len(frames) != 2 {
			t.Errorf("frames = %d, want 2", len(frames))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Navigating back to a body page removes the frameset again (Figure 5
	// step 3 in the other direction).
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	err = alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Root.FirstChildElement("frameset") != nil {
			t.Error("stale frameset left behind")
		}
		if doc.Body() == nil {
			t.Error("body page not restored")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSessionSurvivesAgentServerRestart(t *testing.T) {
	// The paper's session is tied to the agent, not to one TCP listener: a
	// dropped listener (laptop sleep, port rebind) must not lose session
	// state that lives in the agent object.
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// Kill the listener; a poll fails.
	w.server.Close()
	if _, err := alice.PollOnce(); err == nil {
		t.Fatal("poll through a dead listener must fail")
	}

	// Restart on the same address with the same agent; polling resumes with
	// the same participant identity.
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: w.agent}
	srv.Start(l)
	t.Cleanup(srv.Close)

	w.hostNavigate(t, "http://"+sites.Table1[2].Host()+"/")
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("after restart: updated=%v err=%v", updated, err)
	}
}

func TestSessionActionsRequeuedOnPollFailure(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.ShopHost+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	// Queue a click, break the link, poll (fails), restore, poll again:
	// the click must not be lost.
	if err := alice.ClickElement("cartlink"); err != nil {
		t.Fatal(err)
	}
	w.server.Close()
	if _, err := alice.PollOnce(); err == nil {
		t.Fatal("expected poll failure")
	}
	l, err := w.corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &httpwire.Server{Handler: w.agent}
	srv.Start(l)
	t.Cleanup(srv.Close)

	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(w.host.URL(), "/cart") {
		t.Fatalf("requeued click lost; host at %s", w.host.URL())
	}
}

func TestSessionCacheEvictionFallsBack(t *testing.T) {
	// Cache mode rewrote object URLs to the agent; if the host cache loses
	// the entry, the object request 404s but the session keeps working.
	w := newWorld(t, func(a *Agent) { a.DefaultCacheMode = true })
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if alice.Stats().ObjectsFromAgent == 0 {
		t.Fatal("precondition: cache-mode fetches expected")
	}

	w.host.Cache.Clear()
	// Next content regeneration sees an empty cache → URLs go back to the
	// origin (per-object mode flexibility), so new participants still work.
	w.hostNavigate(t, "http://"+sites.Table1[2].Host()+"/")
	bob2 := w.join(t, "bob2.lan")
	if _, err := bob2.PollOnce(); err != nil {
		t.Fatal(err)
	}
	err := bob2.Browser.WithDocument(func(pageURL string, doc *dom.Document) error {
		for _, f := range bob2.Browser.RenderObjects(doc, pageURL) {
			if f.Txn.Down == 0 && !f.FromCache {
				t.Errorf("object %s failed to fetch", f.URL)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A stale agent-object URL from before the eviction answers 404, not a
	// hang or crash.
	client := httpwire.NewClient(w.corpus.Network.Dialer("probe.lan"))
	defer client.Close()
	resp, err := client.Get(agentAddr, "/obj/t1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("evicted object request: %d, want 404", resp.StatusCode)
	}
}

func TestSessionConcurrentParticipantsStress(t *testing.T) {
	// Many participants polling while the host navigates: no races (run
	// with -race), no lost updates, everyone converges to the final page.
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	const n = 6
	snippets := make([]*Snippet, n)
	for i := range snippets {
		snippets[i] = w.join(t, fmt.Sprintf("p%d.lan", i))
		snippets[i].FetchObjects = false
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, n)
	for _, s := range snippets {
		wg.Add(1)
		go func(s *Snippet) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.PollOnce(); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	hosts := []string{
		"http://" + sites.Table1[2].Host() + "/",
		"http://" + sites.ShopHost + "/",
		"http://" + sites.Table1[3].Host() + "/",
	}
	for _, u := range hosts {
		w.hostNavigate(t, u)
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One more synchronous poll each: all converge to the last page.
	for i, s := range snippets {
		if _, err := s.PollOnce(); err != nil {
			t.Fatalf("final poll %d: %v", i, err)
		}
		err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
			title := doc.Head().FirstChildElement("title")
			if title == nil || !strings.Contains(title.TextContent(), "live.com") {
				return fmt.Errorf("participant %d did not converge: %v", i, title)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

func TestSessionOverShapedLinks(t *testing.T) {
	// Live end-to-end run over real (scaled) shaped links: the WAN-scaled
	// session must work and be measurably slower than the LAN-scaled one.
	measure := func(profile netsim.Link) time.Duration {
		corpus, err := sites.NewCorpus()
		if err != nil {
			t.Fatal(err)
		}
		defer corpus.Close()
		corpus.Network.SetLinkPolicy(func(from, to string) netsim.Link {
			if to == agentAddr { // participant ↔ host path
				return profile
			}
			return netsim.Instant
		})
		host := browser.New("host.lan", corpus.Network.Dialer("host.lan"))
		defer host.Close()
		agent := NewAgent(host, agentAddr)
		l, err := corpus.Network.Listen(agentAddr)
		if err != nil {
			t.Fatal(err)
		}
		srv := &httpwire.Server{Handler: agent}
		srv.Start(l)
		defer srv.Close()
		if _, err := host.Navigate("http://" + sites.Table1[1].Host() + "/"); err != nil {
			t.Fatal(err)
		}
		pb := browser.New("alice.far", corpus.Network.Dialer("alice.far"))
		defer pb.Close()
		snip := NewSnippet(pb, "http://"+agentAddr, "")
		snip.FetchObjects = false
		if err := snip.Join(); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		updated, err := snip.PollOnce()
		if err != nil || !updated {
			t.Fatalf("updated=%v err=%v", updated, err)
		}
		return time.Since(start)
	}

	// Scale the paper's profiles down 20× so the test stays fast.
	lan := measure(netsim.LAN.Scaled(20))
	wan := measure(netsim.WAN.Scaled(20))
	if wan <= lan {
		t.Errorf("shaped WAN sync (%v) should be slower than LAN (%v)", wan, lan)
	}
	// WAN scaled RTT is 4ms; the sync must at least pay one round trip.
	if wan < 4*time.Millisecond {
		t.Errorf("WAN sync %v faster than one scaled RTT", wan)
	}
}
