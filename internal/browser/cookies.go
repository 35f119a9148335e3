package browser

import (
	"sort"
	"strings"
	"sync"
)

// CookieJar stores cookies per hostname. Only the name=value core of the
// cookie protocol is modeled — enough for the session-protected workloads
// in the evaluation (shop carts, portal sessions).
type CookieJar struct {
	mu      sync.RWMutex
	cookies map[string]map[string]string // host → name → value
}

// NewCookieJar returns an empty jar.
func NewCookieJar() *CookieJar {
	return &CookieJar{cookies: make(map[string]map[string]string)}
}

// SetFromHeader records a Set-Cookie header value received from host.
func (j *CookieJar) SetFromHeader(host, setCookie string) {
	if setCookie == "" {
		return
	}
	nameValue := strings.Split(setCookie, ";")[0]
	name, value, ok := strings.Cut(strings.TrimSpace(nameValue), "=")
	if !ok || name == "" {
		return
	}
	j.mu.Lock()
	if j.cookies[host] == nil {
		j.cookies[host] = make(map[string]string)
	}
	j.cookies[host][name] = value
	j.mu.Unlock()
}

// Header returns the Cookie request header value for host, or "".
func (j *CookieJar) Header(host string) string {
	j.mu.RLock()
	defer j.mu.RUnlock()
	m := j.cookies[host]
	if len(m) == 0 {
		return ""
	}
	// Deterministic order keeps wire traffic reproducible.
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(m[n])
	}
	return b.String()
}

// Get returns a cookie value for host.
func (j *CookieJar) Get(host, name string) (string, bool) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	v, ok := j.cookies[host][name]
	return v, ok
}
