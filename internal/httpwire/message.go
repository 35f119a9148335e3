// Package httpwire is a from-scratch HTTP/1.1 implementation over net.Conn.
//
// The paper's RCB-Agent does not sit behind a web server: it implements its
// own socket listening and request processing inside the browser extension
// (nsIServerSocket + nsIStreamListener, paper §4.1.1). This package plays
// that role for the Go reproduction: a minimal, dependency-free HTTP layer
// shared by RCB-Agent, the participant client and the synthetic origin
// servers. Only what RCB needs is implemented — GET/POST, Content-Length and
// chunked bodies, keep-alive — and limits are enforced so a malformed peer
// cannot wedge the agent.
package httpwire

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
)

// Limits protecting the server from malformed or hostile input.
const (
	// MaxHeaderBytes bounds the total size of a request or status line plus
	// all header lines.
	MaxHeaderBytes = 64 << 10
	// MaxBodyBytes bounds any message body this implementation will buffer.
	MaxBodyBytes = 32 << 20
)

// Header holds message headers with case-insensitive keys. Keys are stored
// canonicalized (Content-Type form).
type Header map[string][]string

// CanonicalKey converts a header name to its canonical Http-Header-Case.
func CanonicalKey(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && c >= 'a' && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && c >= 'A' && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	v := h[CanonicalKey(key)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Set replaces any existing values for key.
func (h Header) Set(key, value string) {
	h[CanonicalKey(key)] = []string{value}
}

// Add appends a value for key.
func (h Header) Add(key, value string) {
	ck := CanonicalKey(key)
	h[ck] = append(h[ck], value)
}

// sortedKeys returns header keys in deterministic order for serialization.
func (h Header) sortedKeys() []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Request is a parsed HTTP request. Body is fully buffered: RCB exchanges
// small polling messages and page-sized documents, never streams.
type Request struct {
	Method string
	Target string // request-URI exactly as on the wire (origin-form or absolute-form)
	Proto  string // "HTTP/1.1" or "HTTP/1.0"
	Header Header
	Body   []byte

	// RemoteAddr is the peer address, filled in by Server.
	RemoteAddr string
}

// NewRequest builds a request with sensible defaults (HTTP/1.1, empty
// header map).
func NewRequest(method, target string) *Request {
	return &Request{Method: method, Target: target, Proto: "HTTP/1.1", Header: Header{}}
}

// WantsClose reports whether the message requests connection close.
func wantsClose(proto string, h Header) bool {
	conn := strings.ToLower(h.Get("Connection"))
	if strings.Contains(conn, "close") {
		return true
	}
	if proto == "HTTP/1.0" && !strings.Contains(conn, "keep-alive") {
		return true
	}
	return false
}

// WantsClose reports whether the client asked for the connection to be
// closed after this request.
func (r *Request) WantsClose() bool { return wantsClose(r.Proto, r.Header) }

// Path returns the path portion of the request target (before any '?').
func (r *Request) Path() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[:i]
	}
	return r.Target
}

// Query returns the raw query string (after '?'), or "".
func (r *Request) Query() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[i+1:]
	}
	return ""
}

// Response is a parsed or to-be-written HTTP response.
type Response struct {
	StatusCode int
	Proto      string
	Header     Header
	Body       []byte

	// Hijack, when set by a handler, takes over the connection after this
	// response is written: the server invokes it on the connection's own
	// goroutine with the raw conn and the buffered reader (which may hold
	// bytes the peer sent ahead), and stops speaking HTTP on it. When the
	// callback returns the connection is closed. The connection stays
	// registered with the server, so Server.Close severs hijacked
	// connections exactly like parked ones. This is the upgrade mechanism
	// the framed persistent channel rides on.
	Hijack func(conn net.Conn, br *bufio.Reader)
}

// NewResponse builds a response with the given status and body, setting
// Content-Type when ctype is non-empty.
func NewResponse(status int, ctype string, body []byte) *Response {
	resp := &Response{StatusCode: status, Proto: "HTTP/1.1", Header: Header{}, Body: body}
	if ctype != "" {
		resp.Header.Set("Content-Type", ctype)
	}
	return resp
}

// WantsClose reports whether the server signalled connection close.
func (r *Response) WantsClose() bool { return wantsClose(r.Proto, r.Header) }

// StatusText returns the standard reason phrase for code.
func StatusText(code int) string {
	switch code {
	case 101:
		return "Switching Protocols"
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 411:
		return "Length Required"
	case 413:
		return "Payload Too Large"
	case 431:
		return "Request Header Fields Too Large"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + fmt.Sprint(code)
	}
}

// ParseForm decodes an application/x-www-form-urlencoded body or query
// string into ordered key-value pairs. Duplicate keys are preserved in
// order, which form co-filling relies on.
func ParseForm(s string) []FormField {
	if s == "" {
		return nil
	}
	out := make([]FormField, 0, strings.Count(s, "&")+1)
	for s != "" {
		var pair string
		pair, s, _ = strings.Cut(s, "&")
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		out = append(out, FormField{Name: unescapeForm(k), Value: unescapeForm(v)})
	}
	return out
}

// FormField is one form key-value pair.
type FormField struct {
	Name  string
	Value string
}

// EncodeForm encodes fields as application/x-www-form-urlencoded.
func EncodeForm(fields []FormField) string {
	return string(AppendForm(nil, fields))
}

// AppendForm appends the form encoding of fields to dst — the zero-copy
// variant polling clients use to build request bodies in place.
func AppendForm(dst []byte, fields []FormField) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, '&')
		}
		dst = appendEscapeForm(dst, f.Name)
		dst = append(dst, '=')
		dst = appendEscapeForm(dst, f.Value)
	}
	return dst
}

func appendEscapeForm(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', hex[c>>4], hex[c&0xF])
		}
	}
	return dst
}

func unescapeForm(s string) string {
	if !strings.ContainsAny(s, "%+") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '+':
			b.WriteByte(' ')
		case s[i] == '%' && i+2 < len(s):
			h, ok1 := hexVal(s[i+1])
			l, ok2 := hexVal(s[i+2])
			if ok1 && ok2 {
				b.WriteByte(h<<4 | l)
				i += 2
			} else {
				b.WriteByte('%')
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
