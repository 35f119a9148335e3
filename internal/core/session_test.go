package core

import (
	"fmt"
	"strings"
	"testing"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// agentAddr is where the host's RCB-Agent listens on the virtual network.
const agentAddr = "host.lan:3000"

// world bundles a complete co-browsing setup over the virtual internet.
type world struct {
	corpus *sites.Corpus
	host   *browser.Browser
	agent  *Agent
	server *httpwire.Server
}

func newWorld(t *testing.T, configure func(*Agent)) *world {
	t.Helper()
	corpus, err := sites.NewCorpus()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(corpus.Close)

	host := browser.New("host.lan", corpus.Network.Dialer("host.lan"))
	t.Cleanup(host.Close)
	agent := NewAgent(host, agentAddr)
	if configure != nil {
		configure(agent)
	}
	l, err := corpus.Network.Listen(agentAddr)
	if err != nil {
		t.Fatal(err)
	}
	server := &httpwire.Server{Handler: agent}
	server.Start(l)
	t.Cleanup(server.Close)
	t.Cleanup(agent.Close) // runs before server.Close: drain parked long-polls first
	return &world{corpus: corpus, host: host, agent: agent, server: server}
}

// join connects a new participant from the given network location.
func (w *world) join(t *testing.T, loc string) *Snippet {
	t.Helper()
	pb := browser.New(loc, w.corpus.Network.Dialer(loc))
	t.Cleanup(pb.Close)
	s := NewSnippet(pb, "http://"+agentAddr, "")
	if err := s.Join(); err != nil {
		t.Fatal(err)
	}
	return s
}

func (w *world) hostNavigate(t *testing.T, url string) {
	t.Helper()
	if _, err := w.host.Navigate(url); err != nil {
		t.Fatalf("host navigate %s: %v", url, err)
	}
}

// participantBodyHTML returns the participant's current body serialization.
func participantBodyHTML(t *testing.T, s *Snippet) string {
	t.Helper()
	var html string
	err := s.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Body() == nil {
			return fmt.Errorf("participant has no body")
		}
		html = dom.InnerHTML(doc.Body())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return html
}

func TestSessionInitialSync(t *testing.T) {
	w := newWorld(t, nil)
	spec := sites.Table1[1] // google.com
	w.hostNavigate(t, "http://"+spec.Host()+"/")

	alice := w.join(t, "alice.lan")
	updated, err := alice.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("first poll must deliver content")
	}
	body := participantBodyHTML(t, alice)
	if !strings.Contains(body, `id="content"`) {
		t.Errorf("participant body missing page content")
	}
	// Participant head carries the host page's title.
	err = alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		title := doc.Head().FirstChildElement("title")
		if title == nil || !strings.Contains(title.TextContent(), spec.Name) {
			t.Errorf("title not synced: %v", title)
		}
		// Snippet script survived head cleanup (Figure 5 step 1).
		if doc.ByID("rcb-ajax-snippet") == nil {
			t.Error("snippet element lost from head")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Participant never left the agent URL.
	if got := alice.Browser.URL(); got != "http://"+agentAddr+"/" {
		t.Errorf("participant URL = %q, must stay at agent", got)
	}
}

func TestSessionEmptyPollWhenNoChange(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		updated, err := alice.PollOnce()
		if err != nil {
			t.Fatal(err)
		}
		if updated {
			t.Fatal("no host change, but poll delivered content")
		}
	}
	st := alice.Stats()
	if st.EmptyPolls != 3 || st.ContentPolls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionNavigationPropagates(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	// Host browses to a different site (paper: "users can visit different
	// websites ... the loop from steps 3 to 9 is repeated").
	w.hostNavigate(t, "http://"+sites.ShopHost+"/")
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	if !strings.Contains(participantBodyHTML(t, alice), "Everything Store") {
		t.Error("new site content not synced")
	}
}

func TestSessionDynamicDOMChangeSameURL(t *testing.T) {
	// The Google-Maps property: content changes, URL does not (paper §5.2.1).
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.MapsHost+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	before := participantBodyHTML(t, alice)

	ops := sites.MapsOps{Addr: sites.MapsHost, Client: w.host.Client}
	err := w.host.ApplyMutation(func(doc *dom.Document) error {
		return ops.Search(doc, "653 5th Ave, New York")
	})
	if err != nil {
		t.Fatal(err)
	}
	hostURL := w.host.URL()

	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	after := participantBodyHTML(t, alice)
	if before == after {
		t.Fatal("dynamic DOM change did not propagate")
	}
	if !strings.Contains(after, "zoom 16") {
		t.Errorf("map status not synced: %s", after)
	}
	if w.host.URL() != hostURL {
		t.Error("URL changed; the whole point is it must not")
	}
}

func TestSessionNonCacheModeFetchesFromOrigin(t *testing.T) {
	w := newWorld(t, nil) // DefaultCacheMode false
	spec := sites.Table1[1]
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	st := alice.Stats()
	if st.ObjectFetches == 0 {
		t.Fatal("no object fetches recorded")
	}
	if st.ObjectsFromAgent != 0 {
		t.Errorf("non-cache mode fetched %d/%d objects from the agent", st.ObjectsFromAgent, st.ObjectFetches)
	}
}

func TestSessionCacheModeFetchesFromHost(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.DefaultCacheMode = true })
	spec := sites.Table1[1]
	w.hostNavigate(t, "http://"+spec.Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	st := alice.Stats()
	if st.ObjectFetches == 0 {
		t.Fatal("no object fetches recorded")
	}
	// The host cached every supplementary object during its own load, so
	// every fetch must hit the agent.
	if st.ObjectsFromAgent != st.ObjectFetches {
		t.Fatalf("%d/%d fetches from agent", st.ObjectsFromAgent, st.ObjectFetches)
	}
	if _, ok := w.agent.pipeline.object("/obj/t1"); !ok {
		t.Error("mapping table empty")
	}
	// Object bodies must match the origin's bytes.
	inv := sites.Inventory(spec)
	want := sites.ObjectBytes(spec.Name, inv[0].Path, inv[0].Kind, inv[0].Size)
	objURL := w.agent.URL() + "/obj/t1"
	got, ok := alice.Browser.Cache.Get(objURL)
	if !ok {
		t.Fatalf("participant did not cache %s", objURL)
	}
	if string(got.Body) != string(want) {
		t.Error("object bytes differ between origin and agent path")
	}
}

func TestSessionFormCoFill(t *testing.T) {
	// The shopping-study flow: Alice fills the shipping form on her
	// browser; the data merges into Bob's live form (paper §5.2.2).
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.ShopHost+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	// Bob adds to cart and opens checkout.
	w.hostNavigate(t, "http://"+sites.ShopHost+"/product/2")
	var form *dom.Node
	w.host.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("addtocart")
		return nil
	})
	if _, err := w.host.SubmitForm(form, []httpwire.FormField{{Name: "product", Value: "2"}}); err != nil {
		t.Fatal(err)
	}
	w.hostNavigate(t, "http://"+sites.ShopHost+"/checkout")
	alice.PollOnce()

	// Alice fills the shipping form on her copy and "submits" it.
	if err := alice.SubmitFormByID("shipping", []httpwire.FormField{
		{Name: "name", Value: "Alice Cousin"},
		{Name: "street", Value: "1 Fifth Ave"},
		{Name: "city", Value: "New York"},
		{Name: "zip", Value: "10010"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}

	// The data is now in Bob's live DOM.
	err := w.host.WithDocument(func(_ string, doc *dom.Document) error {
		f := doc.ByID("shipping")
		if f == nil {
			return fmt.Errorf("host lost the form")
		}
		for _, el := range f.ElementsByTag("input") {
			if el.AttrOr("name", "") == "name" && el.AttrOr("value", "") != "Alice Cousin" {
				t.Errorf("name field = %q", el.AttrOr("value", ""))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Alice's action-carrying poll already mirrored her own data back: the
	// merge bumps the document version before timestamp inspection runs, so
	// the same response carries the updated content (Figure 2's ordering).
	if !strings.Contains(participantBodyHTML(t, alice), "Alice Cousin") {
		t.Error("merged data not mirrored to participant")
	}
}

func TestSessionParticipantClickNavigatesHost(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.ShopHost+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()

	if err := alice.ClickElement("cartlink"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := w.host.URL(); !strings.HasSuffix(got, "/cart") {
		t.Fatalf("host URL after participant click = %q", got)
	}
	// Session cookie went with it: the cart page rendered (not a 403) and
	// arrived in the same poll response that carried the click.
	if !strings.Contains(participantBodyHTML(t, alice), "Your Cart") {
		t.Error("cart page not synced to participant")
	}
}

func TestSessionPointerMirroring(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()

	var mirrored []Action
	bob2.OnUserAction = func(a Action) { mirrored = append(mirrored, a) }

	alice.PointerMove(120, 300)
	if _, err := alice.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := bob2.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if len(mirrored) != 1 || mirrored[0].Kind != ActionMouseMove || mirrored[0].X != 120 {
		t.Fatalf("mirrored = %+v", mirrored)
	}
	// The originator does not get its own pointer echoed.
	gotEcho := false
	alice.OnUserAction = func(Action) { gotEcho = true }
	alice.PollOnce()
	if gotEcho {
		t.Error("pointer echoed to its originator")
	}
}

func TestSessionHostPointerBroadcast(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	var got []Action
	alice.OnUserAction = func(a Action) { got = append(got, a) }
	w.agent.HostAction(Action{Kind: ActionMouseMove, X: 5, Y: 6})
	alice.PollOnce()
	if len(got) != 1 || got[0].From != "host" {
		t.Fatalf("host pointer not mirrored: %+v", got)
	}
}

func TestSessionReadOnlyPolicyDeniesClicks(t *testing.T) {
	w := newWorld(t, func(a *Agent) { a.Policy = ReadOnlyPolicy() })
	w.hostNavigate(t, "http://"+sites.ShopHost+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	url := w.host.URL()
	alice.ClickElement("cartlink")
	alice.PollOnce()
	if w.host.URL() != url {
		t.Fatal("read-only participant navigated the host")
	}
}

func TestSessionAuthRequired(t *testing.T) {
	key := NewSessionKey()
	w := newWorld(t, func(a *Agent) {
		a.Auth = NewAuthenticator(key)
		a.DefaultCacheMode = true
	})
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")

	// Wrong key: polls are rejected.
	mallory := browser.New("mallory.lan", w.corpus.Network.Dialer("mallory.lan"))
	t.Cleanup(mallory.Close)
	sm := NewSnippet(mallory, "http://"+agentAddr, "wrong-key")
	if err := sm.Join(); err != nil {
		t.Fatal(err) // initial page itself is open; the key is entered there
	}
	if _, err := sm.PollOnce(); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("wrong key poll err = %v, want 401", err)
	}

	// No key at all: also rejected.
	nokey := browser.New("nokey.lan", w.corpus.Network.Dialer("nokey.lan"))
	t.Cleanup(nokey.Close)
	sn := NewSnippet(nokey, "http://"+agentAddr, "")
	sn.Join()
	if _, err := sn.PollOnce(); err == nil {
		t.Fatal("unsigned poll accepted")
	}

	// Correct key: full session works, including pre-signed object URLs.
	pb := browser.New("alice.lan", w.corpus.Network.Dialer("alice.lan"))
	t.Cleanup(pb.Close)
	alice := NewSnippet(pb, "http://"+agentAddr, key)
	if err := alice.Join(); err != nil {
		t.Fatal(err)
	}
	updated, err := alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	if alice.Stats().ObjectsFromAgent == 0 {
		t.Fatal("cache-mode objects not fetched from agent under auth")
	}
}

func TestSessionParticipantModesMixed(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")

	// Flip bob2 into cache mode; alice stays non-cache.
	parts := w.agent.Participants()
	if len(parts) != 2 {
		t.Fatalf("participants = %d", len(parts))
	}
	// bob2 joined second: its pid is the later one. Flip it by matching
	// polls yet to happen; set mode for all and verify each fetch path.
	for _, p := range parts {
		if p.ID == "p2" {
			if err := w.agent.SetParticipantMode(p.ID, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	alice.PollOnce()
	bob2.PollOnce()
	if alice.Stats().ObjectsFromAgent != 0 {
		t.Error("alice (non-cache) fetched from agent")
	}
	if bob2.Stats().ObjectsFromAgent == 0 {
		t.Error("bob2 (cache) did not fetch from agent")
	}
	if err := w.agent.SetParticipantMode("nope", true); err == nil {
		t.Error("unknown participant must error")
	}
}

func TestSessionDisconnect(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	alice := w.join(t, "alice.lan")
	alice.PollOnce()
	parts := w.agent.Participants()
	w.agent.Disconnect(parts[0].ID)
	if _, err := alice.PollOnce(); err == nil {
		t.Fatal("poll after disconnect must fail (403)")
	}
	if len(w.agent.Participants()) != 0 {
		t.Fatal("participant not removed")
	}
}

func TestSessionJoinBeforeHostLoadsPage(t *testing.T) {
	w := newWorld(t, nil)
	alice := w.join(t, "alice.lan")
	// Host has no page yet: polls are empty, not errors.
	updated, err := alice.PollOnce()
	if err != nil || updated {
		t.Fatalf("updated=%v err=%v", updated, err)
	}
	w.hostNavigate(t, "http://"+sites.Table1[1].Host()+"/")
	updated, err = alice.PollOnce()
	if err != nil || !updated {
		t.Fatalf("after host load: updated=%v err=%v", updated, err)
	}
}

func TestSessionContentReusedAcrossParticipants(t *testing.T) {
	w := newWorld(t, nil)
	w.hostNavigate(t, "http://"+sites.Table1[0].Host()+"/")
	alice := w.join(t, "alice.lan")
	bob2 := w.join(t, "bob2.lan")
	alice.PollOnce()
	bob2.PollOnce()
	if participantBodyHTML(t, alice) != participantBodyHTML(t, bob2) {
		t.Fatal("participants diverged on identical content")
	}
}

func TestSessionUnknownObjectRequest(t *testing.T) {
	w := newWorld(t, nil)
	client := httpwire.NewClient(w.corpus.Network.Dialer("x.lan"))
	defer client.Close()
	resp, err := client.Get(agentAddr, "/obj/t999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestSessionPollFromUnknownParticipant(t *testing.T) {
	w := newWorld(t, nil)
	client := httpwire.NewClient(w.corpus.Network.Dialer("x.lan"))
	defer client.Close()
	req := httpwire.NewRequest("POST", "/poll")
	req.Body = []byte("ts=0")
	resp, err := client.Do(agentAddr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
}
