// Package usability reproduces the paper's usability study (§5.2): the
// 20-task co-browsing session of Table 2 executed as a scripted scenario
// against the real RCB stack, the 16-question instrument of Table 3, and
// the Likert-response statistics of Table 4.
//
// The paper's tasks were performed by 20 human subjects; here the two
// role-players (Bob hosts, Alice participates) are driven programmatically,
// which turns the study's 100% task-completion result into a machine-
// checkable property. Tables 3 and 4 operate on simulated responses whose
// merged distribution equals the published one exactly (see questionnaire.go
// and the README's recorded deviations for the framing of that
// substitution).
package usability

import (
	"fmt"
	"io"
	"strings"

	"rcb/internal/browser"
	"rcb/internal/core"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

// TaskResult records the outcome of one Table 2 task.
type TaskResult struct {
	ID   string // "T1-B", "T1-A", ...
	Role string // "Bob" or "Alice"
	Desc string
	Err  error
}

// Scenario drives the combined Google-Maps + shopping session of the study.
type Scenario struct {
	corpus *sites.Corpus
	bob    *browser.Browser // host browser
	agent  *core.Agent
	server *httpwire.Server
	alice  *core.Snippet

	mirrored []core.Action // actions Alice received from Bob
	agentURL string
}

// NewScenario wires the study environment: the site corpus, Bob's browser
// with RCB-Agent pre-installed (as the study pre-installed the extension),
// and a network location for Alice.
func NewScenario() (*Scenario, error) {
	corpus, err := sites.NewCorpus()
	if err != nil {
		return nil, err
	}
	const addr = "bob.lan:3000"
	s := &Scenario{corpus: corpus, agentURL: "http://" + addr}
	s.bob = browser.New("bob.lan", corpus.Network.Dialer("bob.lan"))
	s.agent = core.NewAgent(s.bob, addr)
	l, err := corpus.Network.Listen(addr)
	if err != nil {
		corpus.Close()
		return nil, err
	}
	s.server = &httpwire.Server{Handler: s.agent}
	s.server.Start(l)
	return s, nil
}

// Close tears the scenario down.
func (s *Scenario) Close() {
	if s.alice != nil {
		s.alice.Browser.Close()
	}
	s.server.Close()
	s.bob.Close()
	s.corpus.Close()
}

// sync lets Alice pull the current state.
func (s *Scenario) sync() error {
	_, err := s.alice.PollOnce()
	return err
}

// aliceBody returns Alice's rendered body HTML.
func (s *Scenario) aliceBody() (string, error) {
	var html string
	err := s.alice.Browser.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Body() == nil {
			return fmt.Errorf("alice has no body element")
		}
		html = dom.InnerHTML(doc.Body())
		return nil
	})
	return html, err
}

func (s *Scenario) aliceExpect(substr string) error {
	body, err := s.aliceBody()
	if err != nil {
		return err
	}
	if !strings.Contains(body, substr) {
		return fmt.Errorf("alice's page does not show %q", substr)
	}
	return nil
}

// mapsOps returns the maps client operations bound to Bob's browser.
func (s *Scenario) mapsOps() sites.MapsOps {
	return sites.MapsOps{Addr: sites.MapsHost, Client: s.bob.Client}
}

// Run executes the 20 tasks of Table 2 in order, stopping at nothing: every
// task is attempted and its error recorded, so the completion ratio is
// measurable exactly as in the study.
func (s *Scenario) Run() []TaskResult {
	type task struct {
		id, role, desc string
		fn             func() error
	}
	tasks := []task{
		{"T1-B", "Bob", "Bob starts a RCB co-browsing session using a Firefox browser.", s.t1Bob},
		{"T1-A", "Alice", "Alice types the URL told by Bob in a Firefox browser to join the session.", s.t1Alice},
		{"T2-B", "Bob", `Bob searches the location "653 5th Ave, New York" using Google Maps.`, s.t2Bob},
		{"T2-A", "Alice", "Alice tells Bob that the map of the location is automatically shown on her browser.", s.t2Alice},
		{"T3-B", "Bob", "Bob zooms in and out of the map, drags up/down/left/right the map.", s.t3Bob},
		{"T3-A", "Alice", "Alice tells Bob that the map is automatically updated on her browser.", s.t3Alice},
		{"T4-B", "Bob", "Bob clicks to the street-view of the searched location.", s.t4Bob},
		{"T4-A", "Alice", "Alice tells Bob that the street-view is also automatically shown on her browser.", s.t4Alice},
		{"T5-B", "Bob", "Bob tells Alice to meet outside the four red roof show-windows of Cartier.", s.t5Bob},
		{"T5-A", "Alice", "Alice finds the show-windows and agrees with the meeting spot.", s.t5Alice},
		{"T6-B", "Bob", "Bob continues to visit the homepage of Amazon.com website.", s.t6Bob},
		{"T6-A", "Alice", "Alice tells Bob that the homepage is automatically shown on her browser.", s.t6Alice},
		{"T7-B", "Bob", "Bob searches and clicks to find a MacBook Air laptop.", s.t7Bob},
		{"T7-A", "Alice", "Alice tells Bob that the pages are automatically updated on her browser.", s.t7Alice},
		{"T8-B", "Bob", "Bob asks Alice to search and click to choose a different MacBook Air laptop.", s.t8Bob},
		{"T8-A", "Alice", "Alice chooses a different MacBook Air laptop as her final choice.", s.t8Alice},
		{"T9-B", "Bob", "Bob adds the selected laptop to the shopping cart and starts the checkout procedure.", s.t9Bob},
		{"T9-A", "Alice", "Alice fills the shipping address form shown on her browser.", s.t9Alice},
		{"T10-B", "Bob", "Bob finishes the rest of the checkout procedure.", s.t10Bob},
		{"T10-A", "Alice", "Alice leaves the co-browsing session.", s.t10Alice},
	}
	out := make([]TaskResult, 0, len(tasks))
	for _, tk := range tasks {
		out = append(out, TaskResult{ID: tk.id, Role: tk.role, Desc: tk.desc, Err: tk.fn()})
	}
	return out
}

func (s *Scenario) t1Bob() error {
	// The agent is installed and listening; verify it answers a new
	// connection request with the Ajax-Snippet page.
	c := httpwire.NewClient(s.corpus.Network.Dialer("check.lan"))
	defer c.Close()
	resp, err := c.Get("bob.lan:3000", "/")
	if err != nil {
		return err
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "rcb-ajax-snippet") {
		return fmt.Errorf("agent initial page wrong (status %d)", resp.StatusCode)
	}
	return nil
}

func (s *Scenario) t1Alice() error {
	pb := browser.New("alice.lan", s.corpus.Network.Dialer("alice.lan"))
	s.alice = core.NewSnippet(pb, s.agentURL, "")
	s.alice.OnUserAction = func(a core.Action) { s.mirrored = append(s.mirrored, a) }
	if err := s.alice.Join(); err != nil {
		return err
	}
	_, err := s.alice.PollOnce() // establish the polling channel
	return err
}

func (s *Scenario) t2Bob() error {
	if _, err := s.bob.Navigate("http://" + sites.MapsHost + "/"); err != nil {
		return err
	}
	ops := s.mapsOps()
	return s.bob.ApplyMutation(func(doc *dom.Document) error {
		return ops.Search(doc, "653 5th Ave, New York")
	})
}

func (s *Scenario) t2Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	return s.aliceExpect("center 9650,12318 zoom 16")
}

func (s *Scenario) t3Bob() error {
	ops := s.mapsOps()
	steps := []func(doc *dom.Document) error{
		func(d *dom.Document) error { return ops.Zoom(d, 1) },
		func(d *dom.Document) error { return ops.Zoom(d, -1) },
		func(d *dom.Document) error { return ops.Pan(d, 0, -1) },
		func(d *dom.Document) error { return ops.Pan(d, 1, 1) },
	}
	for _, step := range steps {
		if err := s.bob.ApplyMutation(step); err != nil {
			return err
		}
	}
	return nil
}

func (s *Scenario) t3Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	return s.aliceExpect("center 9651,12318 zoom 16")
}

func (s *Scenario) t4Bob() error {
	ops := s.mapsOps()
	return s.bob.ApplyMutation(ops.OpenStreetView)
}

func (s *Scenario) t4Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	return s.aliceExpect(`id="streetview"`)
}

func (s *Scenario) t5Bob() error {
	// Bob points at the meeting spot; the pointer mirrors to Alice.
	s.agent.HostAction(core.Action{Kind: core.ActionMouseMove, X: 384, Y: 212})
	return nil
}

func (s *Scenario) t5Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	for _, a := range s.mirrored {
		if a.Kind == core.ActionMouseMove && a.From == "host" && a.X == 384 {
			return nil // Alice saw where Bob pointed; she agrees
		}
	}
	return fmt.Errorf("bob's pointer was not mirrored to alice")
}

func (s *Scenario) t6Bob() error {
	_, err := s.bob.Navigate("http://" + sites.ShopHost + "/")
	return err
}

func (s *Scenario) t6Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	return s.aliceExpect("Everything Store")
}

func (s *Scenario) t7Bob() error {
	var form *dom.Node
	err := s.bob.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("search")
		if form == nil {
			return fmt.Errorf("no search form on shop homepage")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := s.bob.SubmitForm(form, []httpwire.FormField{{Name: "q", Value: "macbook air"}}); err != nil {
		return err
	}
	// Bob clicks through to the first result.
	_, err = s.bob.Navigate("http://" + sites.ShopHost + "/product/1")
	return err
}

func (s *Scenario) t7Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	return s.aliceExpect("MacBook Air 13-inch")
}

func (s *Scenario) t8Bob() error {
	// Bob navigates back to the results so Alice can pick; his ask is
	// verbal (voice channel), nothing to verify beyond the page being back.
	var form *dom.Node
	if _, err := s.bob.Navigate("http://" + sites.ShopHost + "/"); err != nil {
		return err
	}
	err := s.bob.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("search")
		return nil
	})
	if err != nil {
		return err
	}
	_, err = s.bob.SubmitForm(form, []httpwire.FormField{{Name: "q", Value: "macbook air"}})
	return err
}

func (s *Scenario) t8Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	// Alice clicks the other MacBook Air (product 2) on her own browser;
	// the click routes through Bob's browser to the shop.
	if err := s.alice.ClickElement("result-2"); err != nil {
		return err
	}
	if err := s.sync(); err != nil {
		return err
	}
	if !strings.HasSuffix(s.bob.URL(), "/product/2") {
		return fmt.Errorf("alice's click did not navigate bob's browser (at %s)", s.bob.URL())
	}
	return s.aliceExpect("MacBook Air 13-inch SSD")
}

func (s *Scenario) t9Bob() error {
	var form *dom.Node
	err := s.bob.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("addtocart")
		if form == nil {
			return fmt.Errorf("no add-to-cart form")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := s.bob.SubmitForm(form, core.FormFields(form)); err != nil {
		return err
	}
	if _, err := s.bob.Navigate("http://" + sites.ShopHost + "/checkout"); err != nil {
		return err
	}
	return nil
}

func (s *Scenario) t9Alice() error {
	if err := s.sync(); err != nil {
		return err
	}
	if err := s.alice.SubmitFormByID("shipping", []httpwire.FormField{
		{Name: "name", Value: "Alice Cousin"},
		{Name: "street", Value: "653 5th Ave"},
		{Name: "city", Value: "New York"},
		{Name: "zip", Value: "10022"},
	}); err != nil {
		return err
	}
	return s.sync()
}

func (s *Scenario) t10Bob() error {
	var form *dom.Node
	var fields []httpwire.FormField
	err := s.bob.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("shipping")
		if form == nil {
			return fmt.Errorf("shipping form lost")
		}
		fields = core.FormFields(form)
		return nil
	})
	if err != nil {
		return err
	}
	// The form must already carry Alice's data (co-filled).
	var hasName bool
	for _, f := range fields {
		if f.Name == "name" && f.Value == "Alice Cousin" {
			hasName = true
		}
	}
	if !hasName {
		return fmt.Errorf("shipping form not co-filled by alice: %v", fields)
	}
	if _, err := s.bob.SubmitForm(form, fields); err != nil {
		return err
	}
	var confirmed bool
	err = s.bob.WithDocument(func(_ string, doc *dom.Document) error {
		confirmed = doc.ByID("confirm") != nil
		return nil
	})
	if err != nil {
		return err
	}
	if !confirmed {
		return fmt.Errorf("order not confirmed")
	}
	return nil
}

func (s *Scenario) t10Alice() error {
	// Alice sees the confirmation, then leaves.
	if err := s.sync(); err != nil {
		return err
	}
	if err := s.aliceExpect("Thank you!"); err != nil {
		return err
	}
	for _, p := range s.agent.Participants() {
		s.agent.Disconnect(p.ID)
	}
	if len(s.agent.Participants()) != 0 {
		return fmt.Errorf("session did not empty")
	}
	return nil
}

// CompletionRatio returns completed/total over a result set.
func CompletionRatio(results []TaskResult) (completed, total int) {
	for _, r := range results {
		if r.Err == nil {
			completed++
		}
	}
	return completed, len(results)
}

// WriteTable2 renders the task table with outcomes.
func WriteTable2(w io.Writer, results []TaskResult) {
	fmt.Fprintln(w, "Table 2: the 20 tasks used in a co-browsing session")
	fmt.Fprintf(w, "%-7s %-6s %-6s %s\n", "Task#", "Role", "OK", "Description")
	fmt.Fprintln(w, strings.Repeat("-", 90))
	for _, r := range results {
		ok := "yes"
		if r.Err != nil {
			ok = "NO"
		}
		fmt.Fprintf(w, "%-7s %-6s %-6s %s\n", r.ID, r.Role, ok, r.Desc)
		if r.Err != nil {
			fmt.Fprintf(w, "        error: %v\n", r.Err)
		}
	}
	done, total := CompletionRatio(results)
	fmt.Fprintf(w, "completed %d/%d tasks (paper: 100%% success across 10 pairs)\n", done, total)
}
