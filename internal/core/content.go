package core

import (
	"fmt"
	"strconv"
	"strings"

	"rcb/internal/browser"
	"rcb/internal/dom"
	"rcb/internal/httpwire"
)

// This file implements the response content generation procedure of
// Figure 3: clone the documentElement, convert relative URLs to absolute,
// convert cached-object URLs to RCB-Agent URLs (cache mode), rewrite event
// attributes, and extract the XML-format response content.

// RCBAttr is the attribute added during event rewriting that names an
// element for action routing. Its value is the element's structural path,
// which is identical in the cloned/participant document and the host's live
// document (rewriting only edits attributes, never tree shape).
const RCBAttr = "data-rcb"

// ElementPath returns the structural path of an element: the chain of
// element-child indexes from the document root, e.g. "1.0.3". The root
// itself has path "". The ancestor walk counts element siblings in place —
// rewriting calls this for every interactive element of every generation
// pass, so it must not allocate per level.
func ElementPath(n *dom.Node) string {
	var stack [16]int
	idxs := stack[:0]
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		pos := 0
		found := false
		for _, sib := range cur.Parent.Children {
			if sib == cur {
				found = true
				break
			}
			if sib.Type == dom.ElementNode {
				pos++
			}
		}
		if !found {
			return "" // detached node
		}
		idxs = append(idxs, pos)
	}
	// Reverse into root-first order.
	var buf [64]byte
	b := buf[:0]
	for i := len(idxs) - 1; i >= 0; i-- {
		if len(b) > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(idxs[i]), 10)
	}
	return string(b)
}

// ResolvePath walks a structural path from root, returning nil when the
// path no longer exists (the document changed since the path was minted).
func ResolvePath(root *dom.Node, path string) *dom.Node {
	cur := root
	for path != "" {
		part, rest, found := strings.Cut(path, ".")
		if part == "" || (found && rest == "") {
			return nil // empty segment: leading, trailing, or doubled dot
		}
		path = rest
		idx, err := strconv.Atoi(part)
		if err != nil || idx < 0 {
			return nil
		}
		var next *dom.Node
		for _, c := range cur.Children {
			if c.Type != dom.ElementNode {
				continue
			}
			if idx == 0 {
				next = c
				break
			}
			idx--
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// objectAttrFor returns which attribute on an element references a
// supplementary object, or "".
func objectAttrFor(n *dom.Node) string {
	switch n.Tag {
	case "link":
		if rel, _ := n.Attr("rel"); rel == "stylesheet" {
			return "href"
		}
	case "script", "img", "frame", "iframe":
		return "src"
	case "object":
		return "data"
	}
	return ""
}

// contentOptions configures one generation pass.
type contentOptions struct {
	pageURL   string
	docTime   int64
	cacheMode bool
	// resolveRef maps a document reference to its absolute URL, consulting
	// the download observer first (paper: the observer records "complete
	// URL addresses for all the object downloading requests").
	resolveRef func(ref string) string
	// cacheHas reports whether the host browser cache holds an absolute URL.
	cacheHas func(absURL string) bool
	// agentURLFor returns the RCB-Agent URL that serves a cached object,
	// registering it in the agent's mapping table.
	agentURLFor func(absURL string) string
}

// generateContent runs the five steps of Figure 3 against a live document
// root and returns the extracted message plus the rewritten clone's region
// elements (see extractContent). The clone is mutated; the live document is
// never touched.
func generateContent(root *dom.Node, opt contentOptions) (*NewContent, [3]*dom.Node) {
	// Step 1: clone the documentElement.
	clone := root.Clone()

	// Steps 2 and 3: URL conversion on supplementary objects.
	clone.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		attr := objectAttrFor(n)
		if attr == "" {
			return true
		}
		ref, ok := n.Attr(attr)
		if !ok || ref == "" {
			return true
		}
		abs := opt.resolveRef(ref)
		if abs == "" {
			return true
		}
		if opt.cacheMode && opt.cacheHas(abs) {
			// Step 3: absolute → RCB-Agent URL for cached objects. The
			// decision is per object, which is what lets different objects
			// on one page use different modes (paper §4.1.2).
			n.SetAttr(attr, opt.agentURLFor(abs))
		} else {
			// Step 2: relative → absolute so the participant browser can
			// reach the origin server directly (non-cache mode).
			n.SetAttr(attr, abs)
		}
		return true
	})

	// Step 4: document element action rewriting.
	rewriteEventAttributes(clone)

	// Step 5: extract the XML-format response content.
	return extractContent(clone, opt.docTime)
}

// rewriteEventAttributes adds snippet hooks to interactive elements so that
// participant-side interactions are captured and carried back by polling
// requests instead of acting locally (paper §4.1.2 step 4, §4.2.2: rewritten
// handlers "will not directly update any URL or change the DOM; they just
// ask Ajax-Snippet to send action information back").
func rewriteEventAttributes(root *dom.Node) {
	root.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		switch n.Tag {
		case "form":
			n.SetAttr(RCBAttr, ElementPath(n))
			n.SetAttr("onsubmit", prependHandler("return __rcb.submit(this);", n.AttrOr("onsubmit", "")))
		case "a":
			if n.HasAttr("href") {
				n.SetAttr(RCBAttr, ElementPath(n))
				n.SetAttr("onclick", prependHandler("return __rcb.click(this);", n.AttrOr("onclick", "")))
			}
		case "input", "textarea", "select":
			n.SetAttr(RCBAttr, ElementPath(n))
			n.SetAttr("onchange", prependHandler("__rcb.input(this);", n.AttrOr("onchange", "")))
		case "button":
			n.SetAttr(RCBAttr, ElementPath(n))
			n.SetAttr("onclick", prependHandler("return __rcb.click(this);", n.AttrOr("onclick", "")))
		}
		return true
	})
}

// prependHandler adds the snippet call in front of an existing inline
// handler, preserving the original code after it.
func prependHandler(call, original string) string {
	if original == "" {
		return call
	}
	return call + " " + original
}

// FindByRCBAttr locates the element carrying the given data-rcb value — how
// the snippet side maps a user interaction back to an action target.
func FindByRCBAttr(root *dom.Node, path string) *dom.Node {
	return root.Find(func(n *dom.Node) bool {
		return n.Type == dom.ElementNode && n.AttrOr(RCBAttr, "") == path
	})
}

// hostResolver builds the reference resolver for a host browser: observer
// resolution first, falling back to URL resolution against the page URL.
func hostResolver(b *browser.Browser, pageURL string) func(string) string {
	return func(ref string) string {
		if abs, ok := b.Observer.Resolve(ref); ok {
			return abs
		}
		abs, err := browser.Resolve(pageURL, ref)
		if err != nil {
			return ""
		}
		return abs
	}
}

// formFieldElements returns the named input-like descendants of a form.
func formFieldElements(form *dom.Node) []*dom.Node {
	return form.FindAll(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return false
		}
		switch n.Tag {
		case "input", "textarea", "select":
			return n.HasAttr("name")
		}
		return false
	})
}

// mergeFormData sets field values on a form from submitted data — the
// paper's "data merging" step: "the form data submitted by a co-browsing
// participant can be extracted and merged into the corresponding form on
// the host browser" (§4.1.1).
func mergeFormData(form *dom.Node, fields map[string]string) int {
	merged := 0
	for _, el := range formFieldElements(form) {
		name, _ := el.Attr("name")
		value, ok := fields[name]
		if !ok {
			continue
		}
		if el.Tag == "textarea" {
			el.ReplaceChildren(dom.NewText(value))
		} else {
			el.SetAttr("value", value)
		}
		merged++
	}
	return merged
}

// formValues reads the current field values of a form from the DOM.
func formValues(form *dom.Node) []formValue {
	var out []formValue
	for _, el := range formFieldElements(form) {
		name, _ := el.Attr("name")
		switch el.Tag {
		case "textarea":
			out = append(out, formValue{name, el.TextContent()})
		default:
			out = append(out, formValue{name, el.AttrOr("value", "")})
		}
	}
	return out
}

type formValue struct {
	Name  string
	Value string
}

// FormFields reads a form's current field values from the DOM as submit-
// ready fields — what the host user sends when finishing a form another
// user co-filled (the shopping study's final checkout step).
func FormFields(form *dom.Node) []httpwire.FormField {
	vals := formValues(form)
	out := make([]httpwire.FormField, len(vals))
	for i, v := range vals {
		out[i] = httpwire.FormField{Name: v.Name, Value: v.Value}
	}
	return out
}

func fmtPath(n *dom.Node) string { return fmt.Sprintf("%s[%s]", n.Tag, ElementPath(n)) }
