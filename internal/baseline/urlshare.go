// Package baseline implements URL sharing, the simplest co-browsing
// architecture the paper positions RCB against (paper §1–§2): lightweight
// but limited to static, session-free pages. The maps example uses it to
// demonstrate the failure modes RCB avoids. The other baseline, a dedicated
// co-browsing proxy, is not reproduced: no figure or table measures one.
package baseline

import (
	"fmt"
	"strings"

	"rcb/internal/browser"
	"rcb/internal/dom"
)

// URLShare is the simplest co-browsing "technique": the host sends its
// current URL (over IM, say) and the participant opens it in an independent
// browser with an independent session. ShareResult records what survived
// the trip.
type URLShare struct {
	Host        *browser.Browser
	Participant *browser.Browser
}

// ShareResult reports the outcome of one shared URL.
type ShareResult struct {
	URL string
	// Loaded is whether the participant could load the URL at all.
	Loaded bool
	// SameContent is whether the participant rendered byte-identical body
	// content to what the host currently displays. Dynamic (Ajax-updated)
	// pages fail this even when Loaded.
	SameContent bool
	// Err holds the participant's load error, if any.
	Err error
}

// ShareCurrent sends the host's current URL to the participant and loads it
// there, then compares the resulting documents.
func (u *URLShare) ShareCurrent() ShareResult {
	res := ShareResult{URL: u.Host.URL()}
	if res.URL == "" {
		res.Err = fmt.Errorf("urlshare: host has no page")
		return res
	}
	if _, err := u.Participant.Navigate(res.URL); err != nil {
		res.Err = err
		return res
	}
	res.Loaded = true

	var hostBody, partBody string
	errHost := u.Host.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Body() != nil {
			hostBody = dom.InnerHTML(doc.Body())
		}
		return nil
	})
	errPart := u.Participant.WithDocument(func(_ string, doc *dom.Document) error {
		if doc.Body() != nil {
			partBody = dom.InnerHTML(doc.Body())
		}
		return nil
	})
	if errHost == nil && errPart == nil {
		res.SameContent = hostBody != "" && hostBody == partBody
	}
	return res
}

// DescribeFailure renders a human-readable diagnosis for demos.
func (r ShareResult) DescribeFailure() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("participant could not load %s: %v", r.URL, trimErr(r.Err))
	case !r.SameContent:
		return fmt.Sprintf("participant loaded %s but sees different content (dynamic page or independent session)", r.URL)
	default:
		return "share succeeded (static, session-free page)"
	}
}

func trimErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
