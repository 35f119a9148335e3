package browser

import (
	"strings"
	"sync"
)

// CacheEntry is one cached response body keyed by absolute URL.
type CacheEntry struct {
	URL         string
	ContentType string
	Body        []byte
}

// Cache is the browser object cache. It stands in for Mozilla's cache
// service: RCB-Agent reads it (never writes it) to serve cached objects
// directly to participant browsers in cache mode (paper §4.1.1, "Read
// Cached Object").
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*CacheEntry
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*CacheEntry)}
}

// Get returns the entry for an absolute URL.
func (c *Cache) Get(absURL string) (*CacheEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[absURL]
	return e, ok
}

// Put stores an entry under its URL.
func (c *Cache) Put(e *CacheEntry) {
	c.mu.Lock()
	c.entries[e.URL] = e
	c.mu.Unlock()
}

// Has reports whether an absolute URL is cached — the check RCB-Agent makes
// per object when deciding whether to rewrite its URL to an agent address
// (paper Figure 3, "Objects Exist in Cache?").
func (c *Cache) Has(absURL string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.entries[absURL]
	return ok
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Clear drops every entry. Tests use it to model a host cache that lost
// what an earlier build referenced.
func (c *Cache) Clear() {
	c.mu.Lock()
	c.entries = make(map[string]*CacheEntry)
	c.mu.Unlock()
}

// Cacheable decides whether a response may enter the cache, from its
// Cache-Control header.
func Cacheable(cacheControl string) bool {
	cc := strings.ToLower(cacheControl)
	if strings.Contains(cc, "no-store") || strings.Contains(cc, "no-cache") {
		return false
	}
	return strings.Contains(cc, "max-age")
}
