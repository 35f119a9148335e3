// Package browser models the two browsers of the RCB architecture: the host
// browser whose live DOM, cache, and download observer RCB-Agent reads, and
// the participant browser that renders synchronized content. It provides
// exactly the capabilities the paper's Firefox extension obtains from XPCOM
// (paper §4.1): the current document, a URL-keyed object cache, an observer
// recording absolute URLs of object downloads, cookies, and page loading.
package browser

import (
	"fmt"
	"net/url"
	"strings"
)

// Resolve resolves ref against base, returning an absolute URL string. It is
// the conversion RCB-Agent applies to every supplementary object reference
// of the cloned document (paper Figure 3, step 2).
func Resolve(base, ref string) (string, error) {
	b, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("browser: bad base url %q: %w", base, err)
	}
	r, err := url.Parse(ref)
	if err != nil {
		return "", fmt.Errorf("browser: bad ref url %q: %w", ref, err)
	}
	return b.ResolveReference(r).String(), nil
}

// AddrOf extracts the dialable virtual address (host:port) from an absolute
// URL, defaulting the port from the scheme (80 for http, 443 for https).
func AddrOf(rawurl string) (string, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return "", fmt.Errorf("browser: bad url %q: %w", rawurl, err)
	}
	if u.Host == "" {
		return "", fmt.Errorf("browser: url %q has no host", rawurl)
	}
	host := u.Host
	if !strings.Contains(host, ":") {
		switch u.Scheme {
		case "https":
			host += ":443"
		default:
			host += ":80"
		}
	}
	return host, nil
}

// TargetOf extracts the origin-form request target (path plus query) from
// an absolute URL.
func TargetOf(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil {
		return "/"
	}
	target := u.EscapedPath()
	if target == "" {
		target = "/"
	}
	if u.RawQuery != "" {
		target += "?" + u.RawQuery
	}
	return target
}

// HostOf returns the bare hostname (no port) of an absolute URL, or "".
func HostOf(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil {
		return ""
	}
	return u.Hostname()
}
