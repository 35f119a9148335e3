package sites

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"rcb/internal/httpwire"
)

// Product is one item in the shop's inventory.
type Product struct {
	ID    int
	Name  string
	Price string
}

// ShopApp is the Amazon stand-in of the usability study (paper §5.2.2): a
// session-protected store with search, product pages, a server-side cart,
// and a checkout form. Cart and checkout require the session cookie issued
// on first visit — the property that breaks URL-sharing co-browsing
// (copying a cart URL into another browser shows nothing) but not RCB,
// where all requests originate from the host browser's session.
type ShopApp struct {
	Host     string
	Products []Product

	mu       sync.Mutex
	nextSID  int
	carts    map[string][]int // sid → product IDs
	shipping map[string][]httpwire.FormField
}

// NewShopApp returns a shop with a laptop-heavy inventory (the study's
// shoppers are choosing a MacBook Air).
func NewShopApp(host string) *ShopApp {
	return &ShopApp{
		Host: host,
		Products: []Product{
			{1, "MacBook Air 13-inch", "$1,799.00"},
			{2, "MacBook Air 13-inch SSD", "$2,598.00"},
			{3, "MacBook Pro 15-inch", "$1,999.00"},
			{4, "ThinkPad X301", "$2,389.00"},
			{5, "EeePC 1000HE", "$389.00"},
		},
		carts:    make(map[string][]int),
		shipping: make(map[string][]httpwire.FormField),
	}
}

// sessionID extracts the sid cookie, or "".
func sessionID(req *httpwire.Request) string {
	for _, part := range strings.Split(req.Header.Get("Cookie"), ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if ok && k == "sid" {
			return v
		}
	}
	return ""
}

// ServeWire implements httpwire.Handler.
func (s *ShopApp) ServeWire(req *httpwire.Request) *httpwire.Response {
	sid := sessionID(req)
	path := req.Path()
	switch {
	case path == "/":
		resp := httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(s.homePage()))
		if sid == "" {
			s.mu.Lock()
			s.nextSID++
			sid = fmt.Sprintf("s%06d", s.nextSID)
			s.mu.Unlock()
			resp.Header.Set("Set-Cookie", "sid="+sid+"; Path=/")
		}
		return resp
	case path == "/search":
		q := formValue(httpwire.ParseForm(req.Query()), "q")
		return httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(s.searchPage(q)))
	case strings.HasPrefix(path, "/product/"):
		id, _ := strconv.Atoi(strings.TrimPrefix(path, "/product/"))
		p := s.product(id)
		if p == nil {
			return httpwire.NewResponse(404, "text/plain", []byte("no such product\n"))
		}
		return httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(s.productPage(*p)))
	case path == "/cart":
		if sid == "" {
			return s.sessionRequired()
		}
		if req.Method == "POST" {
			id, _ := strconv.Atoi(formValue(httpwire.ParseForm(string(req.Body)), "product"))
			if s.product(id) == nil {
				return httpwire.NewResponse(400, "text/plain", []byte("unknown product\n"))
			}
			s.mu.Lock()
			s.carts[sid] = append(s.carts[sid], id)
			s.mu.Unlock()
		}
		return httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(s.cartPage(sid)))
	case path == "/checkout":
		if sid == "" {
			return s.sessionRequired()
		}
		s.mu.Lock()
		empty := len(s.carts[sid]) == 0
		s.mu.Unlock()
		if empty {
			return httpwire.NewResponse(400, "text/html", []byte("<html><body>cart is empty</body></html>"))
		}
		return httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(s.checkoutPage(sid)))
	case path == "/order" && req.Method == "POST":
		if sid == "" {
			return s.sessionRequired()
		}
		fields := httpwire.ParseForm(string(req.Body))
		if formValue(fields, "name") == "" || formValue(fields, "street") == "" {
			return httpwire.NewResponse(400, "text/html", []byte("<html><body>missing shipping fields</body></html>"))
		}
		s.mu.Lock()
		s.shipping[sid] = fields
		items := s.carts[sid]
		line := fmt.Sprintf("order of %d item(s) to %s", len(items), formValue(fields, "name"))
		s.carts[sid] = nil
		s.mu.Unlock()
		body := fmt.Sprintf(`<!DOCTYPE html><html><head><title>Order placed</title></head>`+
			`<body><h1 id="confirm">Thank you!</h1><p>%s</p></body></html>`, line)
		return httpwire.NewResponse(200, "text/html; charset=utf-8", []byte(body))
	default:
		return httpwire.NewResponse(404, "text/plain", []byte("not found\n"))
	}
}

func (s *ShopApp) sessionRequired() *httpwire.Response {
	return httpwire.NewResponse(403, "text/html",
		[]byte("<html><body>session required: visit the homepage first</body></html>"))
}

func (s *ShopApp) product(id int) *Product {
	for i := range s.Products {
		if s.Products[i].ID == id {
			return &s.Products[i]
		}
	}
	return nil
}

// CartItems reports the cart contents for a session (test/diagnostic hook).
func (s *ShopApp) CartItems(sid string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.carts[sid]...)
}

// ShippingField returns a submitted shipping field for a session.
func (s *ShopApp) ShippingField(sid, name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return formValue(s.shipping[sid], name)
}

func (s *ShopApp) homePage() string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><title>Shop</title>` +
		`<script>function doSearch(f){return f.q.value.length>0;}</script></head><body>`)
	b.WriteString(`<h1>Everything Store</h1>`)
	b.WriteString(`<form id="search" action="/search" method="get" onsubmit="return doSearch(this)">` +
		`<input type="text" name="q" value=""><input type="submit" value="Go"></form>`)
	b.WriteString(`<div id="featured">`)
	for _, p := range s.Products[:3] {
		fmt.Fprintf(&b, `<div class="item"><a href="/product/%d">%s</a> <span>%s</span></div>`, p.ID, p.Name, p.Price)
	}
	b.WriteString(`</div><a href="/cart" id="cartlink">Cart</a></body></html>`)
	return b.String()
}

func (s *ShopApp) searchPage(q string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html><html><head><title>Search: %s</title></head><body>`, q)
	fmt.Fprintf(&b, `<h1>Results for %q</h1><div id="results">`, q)
	ql := strings.ToLower(q)
	found := 0
	for _, p := range s.Products {
		if ql == "" || strings.Contains(strings.ToLower(p.Name), ql) {
			fmt.Fprintf(&b, `<div class="result"><a id="result-%d" href="/product/%d">%s</a> <span>%s</span></div>`, p.ID, p.ID, p.Name, p.Price)
			found++
		}
	}
	if found == 0 {
		b.WriteString(`<p id="none">no matches</p>`)
	}
	b.WriteString(`</div><a href="/">home</a></body></html>`)
	return b.String()
}

func (s *ShopApp) productPage(p Product) string {
	return fmt.Sprintf(`<!DOCTYPE html><html><head><title>%s</title></head><body>`+
		`<h1 id="pname">%s</h1><p id="price">%s</p>`+
		`<form id="addtocart" action="/cart" method="post" onsubmit="return true">`+
		`<input type="hidden" name="product" value="%d">`+
		`<input type="submit" value="Add to Cart"></form>`+
		`<a href="/">home</a></body></html>`, p.Name, p.Name, p.Price, p.ID)
}

func (s *ShopApp) cartPage(sid string) string {
	s.mu.Lock()
	items := append([]int(nil), s.carts[sid]...)
	s.mu.Unlock()
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><title>Cart</title></head><body><h1>Your Cart</h1><ul id="cart">`)
	for _, id := range items {
		if p := s.product(id); p != nil {
			fmt.Fprintf(&b, `<li>%s — %s</li>`, p.Name, p.Price)
		}
	}
	b.WriteString(`</ul>`)
	if len(items) > 0 {
		b.WriteString(`<a href="/checkout" id="checkoutlink">Proceed to checkout</a>`)
	} else {
		b.WriteString(`<p id="empty">cart is empty</p>`)
	}
	b.WriteString(`</body></html>`)
	return b.String()
}

func (s *ShopApp) checkoutPage(sid string) string {
	_ = sid
	return `<!DOCTYPE html><html><head><title>Checkout</title></head><body>` +
		`<h1>Shipping address</h1>` +
		`<form id="shipping" action="/order" method="post" onsubmit="return true">` +
		`<input type="text" name="name" value="">` +
		`<input type="text" name="street" value="">` +
		`<input type="text" name="city" value="">` +
		`<input type="text" name="zip" value="">` +
		`<input type="submit" value="Place order"></form></body></html>`
}

var _ httpwire.Handler = (*ShopApp)(nil)
