package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadRequestGET(t *testing.T) {
	req, err := ReadRequest(reader("GET /index.html?x=1 HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Target != "/index.html?x=1" || req.Proto != "HTTP/1.1" {
		t.Fatalf("request line parsed wrong: %+v", req)
	}
	if req.Header.Get("host") != "example.com" {
		t.Errorf("host = %q", req.Header.Get("host"))
	}
	if req.Path() != "/index.html" || req.Query() != "x=1" {
		t.Errorf("path/query = %q %q", req.Path(), req.Query())
	}
	if len(req.Body) != 0 {
		t.Errorf("unexpected body %q", req.Body)
	}
}

func TestReadRequestPOSTBody(t *testing.T) {
	req, err := ReadRequest(reader("POST /poll HTTP/1.1\r\nContent-Length: 11\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\nhello=world"))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello=world" {
		t.Errorf("body = %q", req.Body)
	}
}

func TestReadRequestEOFBeforeAnyBytes(t *testing.T) {
	_, err := ReadRequest(reader(""))
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReadRequestTruncatedBody(t *testing.T) {
	_, err := ReadRequest(reader("POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"))
	if err == nil {
		t.Fatal("want error for truncated body")
	}
}

func TestReadRequestMalformed(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",         // missing proto
		"GET / FTP/1.0\r\n\r\n", // wrong proto
		"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n", // space in name
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ReadRequest(reader(c)); !errors.Is(err, ErrMalformed) {
			t.Errorf("input %q: err = %v, want ErrMalformed", c, err)
		}
	}
}

func TestHeaderTooLarge(t *testing.T) {
	big := "GET / HTTP/1.1\r\nX-Big: " + strings.Repeat("a", MaxHeaderBytes+10) + "\r\n\r\n"
	if _, err := ReadRequest(reader(big)); !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("err = %v, want ErrHeaderTooLarge", err)
	}
}

func TestBodyTooLarge(t *testing.T) {
	hdr := "POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
	if _, err := ReadRequest(reader(hdr)); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
}

func TestReadResponse(t *testing.T) {
	resp, err := ReadResponse(reader("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(resp.Body) != "hello" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestReadResponseNoBodyStatuses(t *testing.T) {
	for _, code := range []string{"204 No Content", "304 Not Modified"} {
		resp, err := ReadResponse(reader("HTTP/1.1 " + code + "\r\n\r\n"))
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		if len(resp.Body) != 0 {
			t.Errorf("%s: unexpected body", code)
		}
	}
}

func TestReadResponseChunked(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	resp, err := ReadResponse(reader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "hello world" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestReadResponseChunkedWithExtensionsAndTrailers(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n"
	resp, err := ReadResponse(reader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "hello" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestWriteReadRequestRoundTrip(t *testing.T) {
	req := NewRequest("POST", "/poll?sid=1")
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Add("X-Multi", "a")
	req.Header.Add("X-Multi", "b")
	req.Body = []byte("tick=42&act=click")
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != req.Method || got.Target != req.Target || string(got.Body) != string(req.Body) {
		t.Fatalf("round trip: %+v", got)
	}
	if vs := got.Header["X-Multi"]; len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Errorf("multi header = %v", vs)
	}
}

func TestWriteReadResponseRoundTrip(t *testing.T) {
	resp := NewResponse(200, "application/xml", []byte("<x/>"))
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.StatusCode != 200 || string(got.Body) != "<x/>" || got.Header.Get("Content-Type") != "application/xml" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestResponseAlwaysFramedWithLength(t *testing.T) {
	// A 200 with empty body must still carry Content-Length: 0 so keep-alive
	// clients can find the message boundary.
	var buf bytes.Buffer
	if err := WriteResponse(&buf, NewResponse(200, "", nil)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Content-Length: 0\r\n") {
		t.Fatalf("missing Content-Length: %q", buf.String())
	}
}

func TestRequestResponseRoundTripProperty(t *testing.T) {
	f := func(body []byte, target string) bool {
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}
		// Target must be a single token without spaces or control bytes.
		target = sanitizeTarget(target)
		req := NewRequest("POST", target)
		req.Body = body
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Target == target && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeTarget(s string) string {
	var b strings.Builder
	b.WriteByte('/')
	for _, c := range []byte(s) {
		if c > ' ' && c < 127 {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func TestCanonicalKey(t *testing.T) {
	cases := map[string]string{
		"content-type":   "Content-Type",
		"CONTENT-LENGTH": "Content-Length",
		"x-rcb-hmac":     "X-Rcb-Hmac",
		"Host":           "Host",
	}
	for in, want := range cases {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWantsClose(t *testing.T) {
	r := NewRequest("GET", "/")
	if r.WantsClose() {
		t.Error("HTTP/1.1 default must be keep-alive")
	}
	r.Header.Set("Connection", "close")
	if !r.WantsClose() {
		t.Error("Connection: close ignored")
	}
	old := NewRequest("GET", "/")
	old.Proto = "HTTP/1.0"
	if !old.WantsClose() {
		t.Error("HTTP/1.0 default must be close")
	}
	old.Header.Set("Connection", "keep-alive")
	if old.WantsClose() {
		t.Error("HTTP/1.0 keep-alive ignored")
	}
}

func TestFormEncodingRoundTrip(t *testing.T) {
	fields := []FormField{
		{"q", "macbook air"},
		{"price", "<=1999&up"},
		{"q", "dup key"},
		{"empty", ""},
	}
	enc := EncodeForm(fields)
	got := ParseForm(enc)
	if len(got) != len(fields) {
		t.Fatalf("lost fields: %v", got)
	}
	for i := range fields {
		if got[i] != fields[i] {
			t.Errorf("field %d = %+v, want %+v", i, got[i], fields[i])
		}
	}
}

func TestFormRoundTripProperty(t *testing.T) {
	f := func(names, values []string) bool {
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		if n > 20 {
			n = 20
		}
		var fields []FormField
		for i := 0; i < n; i++ {
			if names[i] == "" {
				continue // empty names are not representable
			}
			fields = append(fields, FormField{names[i], values[i]})
		}
		got := ParseForm(EncodeForm(fields))
		if len(got) != len(fields) {
			return false
		}
		for i := range fields {
			if got[i] != fields[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// fuzzStream parses every message a peer's bytes hold, the way a server or
// client connection reads them back to back, and checks the readers'
// contract on each: no panic; an error is one of the readers' own; a bare
// io.EOF only where a message would start, never partway through one; and
// a parsed body no longer than the bytes that arrived, in a buffer at most
// twice that (a declared length alone reserves nothing it was not sent).
func fuzzStream(t *testing.T, data []byte, read func(*bufio.Reader) ([]byte, error)) {
	src := bytes.NewReader(data)
	r := bufio.NewReader(src)
	consumed := func() int { return len(data) - src.Len() - r.Buffered() }
	for {
		start := consumed()
		body, err := read(r)
		if err != nil {
			if err == io.EOF && start != len(data) {
				t.Fatalf("io.EOF %d bytes into a message (at %d of %d)", consumed()-start, start, len(data))
			}
			if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) &&
				!errors.Is(err, ErrHeaderTooLarge) && !errors.Is(err, ErrBodyTooLarge) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		if len(body) > len(data) || cap(body) > 2*len(data)+64 {
			t.Fatalf("body len %d cap %d from %d bytes sent", len(body), cap(body), len(data))
		}
		if consumed() == start {
			t.Fatal("a message parsed from no bytes")
		}
	}
}

// FuzzReadRequest fuzzes the request reader an agent runs on every byte a
// participant sends.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Add([]byte("POST /poll HTTP/1.1\r\nContent-Length: 4\r\nCookie: rcbpid=p1\r\n\r\nts=0"))
	f.Add([]byte("POST /poll HTTP/1.1\r\nContent-Length: 33554432\r\n\r\nts=0"))
	f.Add([]byte("POST /poll HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4;x=y\r\nts=0\r\n0\r\nT: v\r\n\r\n"))
	f.Add([]byte("POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nxGET /b HTTP/1.0\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("GET /\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStream(t, data, func(r *bufio.Reader) ([]byte, error) {
			req, err := ReadRequest(r)
			if err != nil {
				return nil, err
			}
			return req.Body, nil
		})
	})
}

// FuzzReadResponse fuzzes the response reader a participant runs on every
// byte an agent or origin sends.
func FuzzReadResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 304 Not Modified\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext\r\nhello\r\n0\r\nX: y\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 503 Service Unavailable\r\nRcb-Close-Reason: OVERCOMMITTED\r\nRcb-Retry-After: 2000\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\nx"))
	f.Add([]byte("HTTP/1.1 099 X\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStream(t, data, func(r *bufio.Reader) ([]byte, error) {
			resp, err := ReadResponse(r)
			if err != nil {
				return nil, err
			}
			return resp.Body, nil
		})
	})
}
