package httpwire

import (
	"net"
	"strings"
	"testing"
)

// Del removes all values for key.
func (h Header) Del(key string) {
	delete(h, CanonicalKey(key))
}

// Clone returns a deep copy of h.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, vs := range h {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

func TestHeaderDelAndClone(t *testing.T) {
	h := Header{}
	h.Set("X-One", "1")
	h.Add("X-Two", "a")
	h.Add("X-Two", "b")

	clone := h.Clone()
	clone.Del("x-one")
	clone.Add("X-Two", "c")

	if h.Get("X-One") != "1" {
		t.Error("Del on clone affected original")
	}
	if len(h["X-Two"]) != 2 {
		t.Error("Add on clone affected original slice")
	}
	if clone.Get("X-One") != "" {
		t.Error("Del did not remove key")
	}
	if len(clone["X-Two"]) != 3 {
		t.Error("clone lost values")
	}
}

func TestStatusTextCoverage(t *testing.T) {
	known := map[int]string{
		200: "OK", 204: "No Content", 301: "Moved Permanently",
		302: "Found", 304: "Not Modified", 400: "Bad Request",
		401: "Unauthorized", 403: "Forbidden", 404: "Not Found",
		405: "Method Not Allowed", 411: "Length Required",
		413: "Payload Too Large", 431: "Request Header Fields Too Large",
		500: "Internal Server Error", 501: "Not Implemented",
		502: "Bad Gateway", 503: "Service Unavailable",
	}
	for code, want := range known {
		if got := StatusText(code); got != want {
			t.Errorf("StatusText(%d) = %q, want %q", code, got, want)
		}
	}
	if got := StatusText(799); !strings.Contains(got, "799") {
		t.Errorf("unknown status text = %q", got)
	}
}

func TestPathQueryWithoutQuestionMark(t *testing.T) {
	r := NewRequest("GET", "/plain")
	if r.Path() != "/plain" || r.Query() != "" {
		t.Errorf("path/query = %q %q", r.Path(), r.Query())
	}
}

func TestListenAndServeRealSocket(t *testing.T) {
	srv, l, err := ListenAndServe("127.0.0.1:0", HandlerFunc(func(req *Request) *Response {
		return NewResponse(200, "text/plain", []byte("real tcp"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })
	defer c.Close()
	resp, err := c.Get(l.Addr().String(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "real tcp" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestClientDialFailure(t *testing.T) {
	c := NewClient(func(addr string) (net.Conn, error) {
		return nil, net.ErrClosed
	})
	defer c.Close()
	if _, err := c.Get("nowhere:1", "/"); err == nil {
		t.Fatal("dial failure must surface")
	}
}

func TestFormUnescapeMalformedPercent(t *testing.T) {
	got := ParseForm("a=%GZ&b=%2")
	if len(got) != 2 {
		t.Fatalf("fields = %v", got)
	}
	if got[0].Value != "%GZ" {
		t.Errorf("malformed escape = %q, want passthrough", got[0].Value)
	}
	if got[1].Value != "%2" {
		t.Errorf("truncated escape = %q, want passthrough", got[1].Value)
	}
}
