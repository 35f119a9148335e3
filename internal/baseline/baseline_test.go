package baseline

import (
	"strings"
	"testing"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
	"rcb/internal/sites"
)

func setup(t *testing.T) (*sites.Corpus, *browser.Browser, *browser.Browser) {
	t.Helper()
	corpus, err := sites.NewCorpus()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(corpus.Close)
	host := browser.New("host.lan", corpus.Network.Dialer("host.lan"))
	t.Cleanup(host.Close)
	part := browser.New("alice.lan", corpus.Network.Dialer("alice.lan"))
	t.Cleanup(part.Close)
	return corpus, host, part
}

func TestURLShareWorksOnStaticPages(t *testing.T) {
	_, host, part := setup(t)
	spec := sites.Table1[1] // google.com: no sessions, static
	if _, err := host.Navigate("http://" + spec.Host() + "/"); err != nil {
		t.Fatal(err)
	}
	share := &URLShare{Host: host, Participant: part}
	res := share.ShareCurrent()
	if !res.Loaded || !res.SameContent {
		t.Fatalf("static share failed: %+v (%s)", res, res.DescribeFailure())
	}
}

func TestURLShareFailsOnDynamicPages(t *testing.T) {
	// The Google-Maps failure mode: after an Ajax update the host's content
	// differs from what the URL fetches (paper §1: "in many dynamically-
	// updated webpages ... the retrieved contents will be different even
	// with the same URL").
	corpus, host, part := setup(t)
	if _, err := host.Navigate("http://" + sites.MapsHost + "/"); err != nil {
		t.Fatal(err)
	}
	ops := sites.MapsOps{Addr: sites.MapsHost, Client: host.Client}
	err := host.ApplyMutation(func(doc *dom.Document) error {
		return ops.Search(doc, "times square")
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = corpus
	share := &URLShare{Host: host, Participant: part}
	res := share.ShareCurrent()
	if !res.Loaded {
		t.Fatalf("load failed: %v", res.Err)
	}
	if res.SameContent {
		t.Fatal("dynamic page share should NOT produce identical content")
	}
	if !strings.Contains(res.DescribeFailure(), "different content") {
		t.Errorf("diagnosis: %s", res.DescribeFailure())
	}
}

func TestURLShareFailsOnSessionPages(t *testing.T) {
	// The cart failure mode: the participant gets a different session, so
	// the shared cart URL shows different (empty) content.
	_, host, part := setup(t)
	if _, err := host.Navigate("http://" + sites.ShopHost + "/"); err != nil {
		t.Fatal(err)
	}
	var form *dom.Node
	host.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("search")
		return nil
	})
	// Host adds an item via direct POST (simplest path to session state).
	if _, err := host.Navigate("http://" + sites.ShopHost + "/product/1"); err != nil {
		t.Fatal(err)
	}
	host.WithDocument(func(_ string, doc *dom.Document) error {
		form = doc.ByID("addtocart")
		return nil
	})
	if _, err := host.SubmitForm(form, []httpwire.FormField{{Name: "product", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	// Host is now on /cart with one item. Share it.
	share := &URLShare{Host: host, Participant: part}
	res := share.ShareCurrent()
	if res.Err == nil && res.SameContent {
		t.Fatal("session-protected cart must not share cleanly")
	}
	// The participant never ends up inside the host's server-side session:
	// the two sessions are independent, which is why the cart breaks.
	hv, hok := host.Jar.Get("shop.example", "sid")
	pv, pok := part.Jar.Get("shop.example", "sid")
	if hok && pok && hv == pv {
		t.Fatal("URL sharing must not propagate sessions")
	}
}
