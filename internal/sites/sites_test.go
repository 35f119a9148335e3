package sites

import (
	"strings"
	"testing"

	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

func TestTable1Catalog(t *testing.T) {
	if len(Table1) != 20 {
		t.Fatalf("Table 1 must list 20 sites, got %d", len(Table1))
	}
	seen := map[string]bool{}
	for i, s := range Table1 {
		if s.Index != i+1 {
			t.Errorf("site %s index %d, want %d", s.Name, s.Index, i+1)
		}
		if s.PageKB <= 0 {
			t.Errorf("site %s has no page size", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate site %s", s.Name)
		}
		seen[s.Name] = true
	}
	// Spot-check the published sizes.
	if s, _ := SiteByName("amazon.com"); s.PageKB != 228.5 {
		t.Errorf("amazon.com size = %v, want 228.5", s.PageKB)
	}
	if s, _ := SiteByName("google.com"); s.PageKB != 6.8 {
		t.Errorf("google.com size = %v, want 6.8", s.PageKB)
	}
}

func TestGeneratedPageHitsPublishedSize(t *testing.T) {
	for _, spec := range Table1 {
		page := GeneratePage(spec, Inventory(spec))
		if len(page) != spec.PageBytes() {
			t.Errorf("%s: generated %d bytes, want %d", spec.Name, len(page), spec.PageBytes())
		}
	}
}

func TestGeneratedPageIsDeterministic(t *testing.T) {
	spec := Table1[0]
	a := GeneratePage(spec, Inventory(spec))
	b := GeneratePage(spec, Inventory(spec))
	if a != b {
		t.Fatal("page generation is not deterministic")
	}
}

func TestGeneratedPageParses(t *testing.T) {
	for _, spec := range Table1[:5] {
		page := GeneratePage(spec, Inventory(spec))
		doc := dom.Parse(page)
		if doc.Body() == nil || doc.Head() == nil {
			t.Fatalf("%s: page did not parse into skeleton", spec.Name)
		}
		if len(doc.ByTag("form")) == 0 {
			t.Errorf("%s: page has no form", spec.Name)
		}
		if len(doc.ByTag("img")) == 0 {
			t.Errorf("%s: page has no images", spec.Name)
		}
	}
}

func TestInventoryDeterministicAndReferenced(t *testing.T) {
	spec := Table1[3]
	objs := Inventory(spec)
	if len(objs) == 0 {
		t.Fatal("empty inventory")
	}
	again := Inventory(spec)
	if len(again) != len(objs) {
		t.Fatal("inventory not deterministic")
	}
	page := GeneratePage(spec, objs)
	for _, o := range objs {
		if o.Kind == ObjImage && !strings.Contains(page, o.Path) {
			t.Errorf("image %s not referenced from page", o.Path)
		}
	}
}

func TestObjectBytesSizedAndStable(t *testing.T) {
	b1 := ObjectBytes("x.com", "/img/i0.png", ObjImage, 5000)
	b2 := ObjectBytes("x.com", "/img/i0.png", ObjImage, 5000)
	if len(b1) != 5000 || string(b1) != string(b2) {
		t.Fatal("object bytes not stable/sized")
	}
	css := ObjectBytes("x.com", "/static/style0.css", ObjCSS, 3000)
	if len(css) != 3000 || !strings.Contains(string(css), "margin") {
		t.Fatal("css body implausible")
	}
}

func TestStaticSiteServesHomepageAndObjects(t *testing.T) {
	spec := Table1[1] // google.com, small
	site := NewStaticSite(spec)
	resp := site.ServeWire(httpwire.NewRequest("GET", "/"))
	if resp.StatusCode != 200 || len(resp.Body) != spec.PageBytes() {
		t.Fatalf("homepage: %d, %d bytes", resp.StatusCode, len(resp.Body))
	}
	obj := site.Objects[0]
	resp = site.ServeWire(httpwire.NewRequest("GET", obj.Path))
	if resp.StatusCode != 200 || len(resp.Body) != obj.Size {
		t.Fatalf("object %s: %d, %d bytes want %d", obj.Path, resp.StatusCode, len(resp.Body), obj.Size)
	}
	if resp.Header.Get("Cache-Control") == "" {
		t.Error("objects must be cacheable")
	}
	resp = site.ServeWire(httpwire.NewRequest("GET", "/nope"))
	if resp.StatusCode != 404 {
		t.Errorf("missing object: %d", resp.StatusCode)
	}
}

func TestStaticSiteSearchAndItems(t *testing.T) {
	site := NewStaticSite(Table1[0])
	resp := site.ServeWire(httpwire.NewRequest("GET", "/search?q=news"))
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "news") {
		t.Fatalf("search: %d %q", resp.StatusCode, resp.Body)
	}
	resp = site.ServeWire(httpwire.NewRequest("GET", "/item/1"))
	if resp.StatusCode != 200 {
		t.Fatalf("item: %d", resp.StatusCode)
	}
}

func TestSessionSiteSetsCookie(t *testing.T) {
	spec, _ := SiteByName("facebook.com")
	site := NewStaticSite(spec)
	resp := site.ServeWire(httpwire.NewRequest("GET", "/"))
	if resp.Header.Get("Set-Cookie") == "" {
		t.Fatal("session site must set a cookie")
	}
}

func TestMapsInitialPage(t *testing.T) {
	m := NewMapsApp(MapsHost)
	resp := m.ServeWire(httpwire.NewRequest("GET", "/"))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	doc := dom.Parse(string(resp.Body))
	tiles := doc.ByTag("img")
	if len(tiles) != GridSize*GridSize {
		t.Fatalf("want %d tiles, got %d", GridSize*GridSize, len(tiles))
	}
	if doc.ByID("map") == nil || doc.ByID("status") == nil {
		t.Fatal("map structure missing")
	}
}

func TestMapsTilesDeterministic(t *testing.T) {
	m := NewMapsApp(MapsHost)
	r1 := m.ServeWire(httpwire.NewRequest("GET", "/tile/12/9640/12300.png"))
	r2 := m.ServeWire(httpwire.NewRequest("GET", "/tile/12/9640/12300.png"))
	if r1.StatusCode != 200 || string(r1.Body) != string(r2.Body) {
		t.Fatal("tiles not deterministic")
	}
	other := m.ServeWire(httpwire.NewRequest("GET", "/tile/12/9641/12300.png"))
	if string(other.Body) == string(r1.Body) {
		t.Fatal("distinct tiles must differ")
	}
}

func TestMapsGeocode(t *testing.T) {
	m := NewMapsApp(MapsHost)
	resp := m.ServeWire(httpwire.NewRequest("GET", "/api/geocode?q=653+5th+Ave%2C+New+York"))
	if resp.StatusCode != 200 {
		t.Fatalf("geocode status %d", resp.StatusCode)
	}
	if string(resp.Body) != "9650 12318 16" {
		t.Fatalf("geocode = %q", resp.Body)
	}
	resp = m.ServeWire(httpwire.NewRequest("GET", "/api/geocode?q=atlantis"))
	if resp.StatusCode != 404 {
		t.Fatalf("unknown place: %d", resp.StatusCode)
	}
}

func TestShopSessionFlow(t *testing.T) {
	shop := NewShopApp(ShopHost)

	// Cart without a session is refused.
	resp := shop.ServeWire(httpwire.NewRequest("GET", "/cart"))
	if resp.StatusCode != 403 {
		t.Fatalf("cart without session: %d", resp.StatusCode)
	}

	// Homepage issues the session.
	resp = shop.ServeWire(httpwire.NewRequest("GET", "/"))
	cookie := resp.Header.Get("Set-Cookie")
	if cookie == "" {
		t.Fatal("no session cookie issued")
	}
	sid := strings.TrimPrefix(strings.Split(cookie, ";")[0], "sid=")

	withSession := func(method, target, body string) *httpwire.Response {
		req := httpwire.NewRequest(method, target)
		req.Header.Set("Cookie", "sid="+sid)
		if body != "" {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Body = []byte(body)
		}
		return shop.ServeWire(req)
	}

	// Search finds the laptop.
	resp = withSession("GET", "/search?q=macbook+air", "")
	if !strings.Contains(string(resp.Body), "MacBook Air") {
		t.Fatalf("search results missing laptop: %q", resp.Body)
	}

	// Add to cart, then checkout, then order.
	resp = withSession("POST", "/cart", "product=2")
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "MacBook Air 13-inch SSD") {
		t.Fatalf("cart add failed: %d %q", resp.StatusCode, resp.Body)
	}
	if items := shop.CartItems(sid); len(items) != 1 || items[0] != 2 {
		t.Fatalf("cart state = %v", items)
	}
	resp = withSession("GET", "/checkout", "")
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), `id="shipping"`) {
		t.Fatalf("checkout: %d", resp.StatusCode)
	}
	resp = withSession("POST", "/order", "name=Alice&street=1+Main+St&city=NYC&zip=10001")
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "Thank you") {
		t.Fatalf("order: %d %q", resp.StatusCode, resp.Body)
	}
	if got := shop.ShippingField(sid, "name"); got != "Alice" {
		t.Fatalf("shipping name = %q", got)
	}
	if !strings.Contains(string(resp.Body), "order of 1 item(s) to Alice") {
		t.Fatalf("order confirmation = %q", resp.Body)
	}
	// Cart is drained after ordering.
	if items := shop.CartItems(sid); len(items) != 0 {
		t.Fatalf("cart not drained: %v", items)
	}
}

func TestShopOrderValidation(t *testing.T) {
	shop := NewShopApp(ShopHost)
	req := httpwire.NewRequest("POST", "/order")
	req.Header.Set("Cookie", "sid=s1")
	req.Body = []byte("name=&street=")
	if resp := shop.ServeWire(req); resp.StatusCode != 400 {
		t.Fatalf("empty shipping accepted: %d", resp.StatusCode)
	}
}

func TestShopCheckoutRequiresNonEmptyCart(t *testing.T) {
	shop := NewShopApp(ShopHost)
	req := httpwire.NewRequest("GET", "/checkout")
	req.Header.Set("Cookie", "sid=sX")
	if resp := shop.ServeWire(req); resp.StatusCode != 400 {
		t.Fatalf("empty-cart checkout: %d", resp.StatusCode)
	}
}

func TestCorpusEndToEnd(t *testing.T) {
	corpus, err := NewCorpus()
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	client := httpwire.NewClient(corpus.Network.Dialer("browser.lan"))
	defer client.Close()

	// Fetch a Table 1 homepage over the virtual internet.
	spec := Table1[1]
	resp, err := client.Get(spec.Host(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != spec.PageBytes() {
		t.Fatalf("got %d bytes, want %d", len(resp.Body), spec.PageBytes())
	}
	// Maps and shop are reachable too.
	if resp, err = client.Get(MapsHost, "/"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("maps: %v %d", err, resp.StatusCode)
	}
	if resp, err = client.Get(ShopHost, "/"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("shop: %v %d", err, resp.StatusCode)
	}
}

func TestMapsOpsOverVirtualNetwork(t *testing.T) {
	corpus, err := NewCorpus()
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	client := httpwire.NewClient(corpus.Network.Dialer("host.lan"))
	defer client.Close()

	resp, err := client.Get(MapsHost, "/")
	if err != nil {
		t.Fatal(err)
	}
	doc := dom.Parse(string(resp.Body))
	ops := MapsOps{Addr: MapsHost, Client: client}

	before := dom.InnerHTML(doc.ByID("map"))
	if err := ops.Search(doc, "653 5th Ave, New York"); err != nil {
		t.Fatal(err)
	}
	after := dom.InnerHTML(doc.ByID("map"))
	if before == after {
		t.Fatal("search did not change the map")
	}
	if got := doc.ByID("map").AttrOr("data-z", ""); got != "16" {
		t.Errorf("zoom after search = %s, want 16", got)
	}
	if err := ops.Zoom(doc, 1); err != nil {
		t.Fatal(err)
	}
	if got := doc.ByID("map").AttrOr("data-z", ""); got != "17" {
		t.Errorf("zoom in = %s, want 17", got)
	}
	if err := ops.Pan(doc, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := doc.ByID("map").AttrOr("data-x", ""); got != "9651" {
		t.Errorf("pan x = %s, want 9651", got)
	}
	if err := ops.OpenStreetView(doc); err != nil {
		t.Fatal(err)
	}
	if doc.ByID("streetview") == nil {
		t.Fatal("street view not embedded")
	}
	// Idempotent.
	if err := ops.OpenStreetView(doc); err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Root.FindAll(func(n *dom.Node) bool { return n.AttrOr("id", "") == "streetview" })); n != 1 {
		t.Fatalf("street view embedded %d times", n)
	}
}

func TestMapsZoomClamped(t *testing.T) {
	m := NewMapsApp(MapsHost)
	doc := dom.Parse(string(m.ServeWire(httpwire.NewRequest("GET", "/")).Body))
	ops := MapsOps{} // Zoom needs no network
	for i := 0; i < 30; i++ {
		if err := ops.Zoom(doc, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := doc.ByID("map").AttrOr("data-z", ""); got != "18" {
		t.Fatalf("zoom not clamped high: %s", got)
	}
	for i := 0; i < 40; i++ {
		if err := ops.Zoom(doc, -1); err != nil {
			t.Fatal(err)
		}
	}
	if got := doc.ByID("map").AttrOr("data-z", ""); got != "1" {
		t.Fatalf("zoom not clamped low: %s", got)
	}
}
