// Package core implements the RCB framework itself — the paper's
// contribution. It contains the two components of Figure 1:
//
//   - Agent: the RCB-Agent "browser extension", an HTTP service embedded in
//     the host browser that classifies and processes the three request types
//     of Figure 2, generates response content per Figure 3, and moderates
//     co-browsing sessions under a Policy.
//   - Snippet: the Ajax-Snippet logic a participant's browser executes —
//     the polling loop and the four-step content application procedure of
//     Figure 5 — reproduced as a Go state machine driving a participant
//     browser model.
//
// The wire format between them is the XML response content of Figure 4,
// with payloads encoded by JavaScript escape() inside CDATA sections, and
// requests optionally authenticated with the HMAC scheme of §3.4.
package core

import (
	"encoding/json"
	"fmt"

	"rcb/internal/httpwire"
)

// ActionKind enumerates the user actions RCB synchronizes between browsers
// (paper step 9: form filling, mouse-pointer moves, clicks ...).
type ActionKind string

// The action kinds carried in Ajax polling requests and userActions
// elements.
const (
	// ActionClick is a click on a link or button, identified by its RCB id.
	ActionClick ActionKind = "click"
	// ActionFormInput reports a single field edit (live co-filling).
	ActionFormInput ActionKind = "forminput"
	// ActionFormSubmit carries a whole form's data back to the host.
	ActionFormSubmit ActionKind = "formsubmit"
	// ActionMouseMove reports pointer position for pointer mirroring.
	ActionMouseMove ActionKind = "mousemove"
	// ActionScroll reports viewport scroll offsets.
	ActionScroll ActionKind = "scroll"
)

// Action is one user interaction event. Actions flow from participants to
// the host piggybacked on Ajax polling requests (paper §4.1.1 "data
// merging"), and from the host to participants inside the userActions
// element of the XML response content (Figure 4).
type Action struct {
	Kind ActionKind `json:"kind"`
	// Target names the affected element: the value of its data-rcb
	// attribute assigned during event rewriting.
	Target string `json:"target,omitempty"`
	// Value holds a field value for forminput, or a scroll offset.
	Value string `json:"value,omitempty"`
	// Fields holds the full field list for formsubmit.
	Fields []httpwire.FormField `json:"fields,omitempty"`
	// X, Y are pointer coordinates for mousemove.
	X int `json:"x,omitempty"`
	Y int `json:"y,omitempty"`
	// From identifies the originating user ("host" or a participant ID).
	From string `json:"from,omitempty"`
	// CID and CSeq identify the action for replay filtering: the snippet
	// stamps each action with its client ID and a client-local sequence
	// number, and the agent accepts each (CID, CSeq) pair once, so the
	// at-least-once upstream (rewinds, poll retries, rejoins) is
	// exactly-once at the policy. Empty CID bypasses the filter.
	CID  string `json:"cid,omitempty"`
	CSeq int64  `json:"cseq,omitempty"`
}

// String renders a compact human-readable description.
func (a Action) String() string {
	switch a.Kind {
	case ActionMouseMove:
		return fmt.Sprintf("%s(%d,%d) from %s", a.Kind, a.X, a.Y, a.From)
	case ActionFormSubmit:
		return fmt.Sprintf("%s %s %d fields from %s", a.Kind, a.Target, len(a.Fields), a.From)
	default:
		return fmt.Sprintf("%s %s=%q from %s", a.Kind, a.Target, a.Value, a.From)
	}
}

// EncodeActions marshals actions for transport inside a form field or a
// userActions payload.
func EncodeActions(actions []Action) string {
	if len(actions) == 0 {
		return ""
	}
	b, err := json.Marshal(actions)
	if err != nil {
		// Action contains only marshalable fields; this cannot happen.
		panic("core: encode actions: " + err.Error())
	}
	return string(b)
}

// DecodeActions reverses EncodeActions. An empty payload yields nil.
func DecodeActions(payload string) ([]Action, error) {
	if payload == "" {
		return nil, nil
	}
	var out []Action
	if err := json.Unmarshal([]byte(payload), &out); err != nil {
		return nil, fmt.Errorf("core: decode actions: %w", err)
	}
	return out, nil
}
