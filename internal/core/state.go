package core

import (
	"encoding/json"
	"fmt"

	"rcb/internal/dom"
)

// Versioned session state codec. ExportState serializes everything an agent
// process owns about a live session — the participant table with its
// delivery outboxes, the host document and docTime clock, the (CID, CSeq)
// replay stamps, the object mapping, and the prepared
// content cache — into one self-describing JSON document; ImportState
// rebuilds an equivalent agent from it. The codec backs both durability
// moves: checkpoint/restore across a process death (cmd/rcb-host
// -checkpoint/-restore) and live handover between two running agents
// (handover.go). The encoding is deterministic — every map is flattened
// into a sorted slice and times are millisecond integers — so
// export → import → export is byte-identical, which is what the round-trip
// property test pins.

// StateSchemaVersion is bumped whenever the encoded layout changes
// incompatibly; ImportState refuses snapshots from a different major
// schema rather than guessing.
const StateSchemaVersion = 1

type agentState struct {
	Schema int `json:"schema"`
	// Addr is the exporting agent's address: an importer at a different
	// address must drop cache-mode prepared content, whose XML embeds
	// object URLs minted for the old address.
	Addr             string `json:"addr"`
	SessionKey       string `json:"sessionKey,omitempty"`
	DefaultCacheMode bool   `json:"defaultCacheMode"`

	PageURL string `json:"pageURL,omitempty"`
	DocHTML string `json:"docHTML,omitempty"`
	DocTime int64  `json:"docTime"`

	NextPID int `json:"nextPID"`

	Participants []participantSnapshot `json:"participants"`
	Closed       []closedSnapshot      `json:"closed,omitempty"`
	Dedup        []dedupSnapshot       `json:"dedup,omitempty"`
	Objects      []objectSnapshot      `json:"objects,omitempty"`
	Prepared     []preparedSnapshot    `json:"prepared,omitempty"`
}

type participantSnapshot struct {
	ID          string   `json:"id"`
	CacheMode   bool     `json:"cacheMode"`
	LastDocTime int64    `json:"lastDocTime"`
	LastSeenMS  int64    `json:"lastSeenMS"`
	Polls       int64    `json:"polls"`
	Outbox      []Action `json:"outbox,omitempty"`
}

type closedSnapshot struct {
	PID    string `json:"pid"`
	Reason string `json:"reason"`
}

// dedupSnapshot carries one client's replay stamps. Recent is the FIFO
// window in insertion order; snapshots are listed least-recently-active
// first so the importer can reconstruct the LRU order exactly.
type dedupSnapshot struct {
	CID    string  `json:"cid"`
	MaxSeq int64   `json:"maxSeq"`
	Recent []int64 `json:"recent,omitempty"`
	SeenMS int64   `json:"seenMS"`
}

type objectSnapshot struct {
	Path string `json:"path"`
	URL  string `json:"url"`
}

// preparedSnapshot carries one mode's prepared build (and its delta-base
// ring, when bases are retained) so a restored agent answers the next poll
// with the very bytes the original would have sent — same docTime, no
// spurious resync storm on rejoin. The newest ring entry rides in the
// legacy Prev fields so a schema-1 reader from before the ring still
// restores its single base; Ring carries the rest, oldest last, and is
// simply absent from pre-ring snapshots (additive schema, no version bump).
type preparedSnapshot struct {
	CacheMode   bool           `json:"cacheMode"`
	DocTime     int64          `json:"docTime"`
	XML         string         `json:"xml"`
	PrevDocTime int64          `json:"prevDocTime,omitempty"`
	PrevXML     string         `json:"prevXML,omitempty"`
	Ring        []ringSnapshot `json:"ring,omitempty"`
}

// ringSnapshot is one retained delta base beyond the newest.
type ringSnapshot struct {
	DocTime int64  `json:"docTime"`
	XML     string `json:"xml"`
}

// ExportState serializes the full session under the serve/state barrier:
// it takes the write side of smu, so no poll is mid-merge anywhere — a
// snapshot can never hold a replay stamp whose document effect is missing,
// or the reverse. Host-side mutations racing the export are tolerated via
// a version-stabilization loop: the document and the prepared cache are
// re-read until they describe the same version.
func (a *Agent) ExportState() ([]byte, error) {
	a.smu.Lock()
	defer a.smu.Unlock()
	st := &agentState{
		Schema:           StateSchemaVersion,
		Addr:             a.Addr,
		DefaultCacheMode: a.DefaultCacheMode,
	}
	if a.Auth != nil {
		st.SessionKey = string(a.Auth.key)
	}

	// Document + prepared cache, stabilized against concurrent host
	// mutations: capture the doc, then only export prepared builds whose
	// version matches the captured one.
	var version int64
	for {
		version = a.Browser.Version()
		if version == 0 {
			break
		}
		err := a.Browser.WithDocument(func(pageURL string, doc *dom.Document) error {
			st.PageURL = pageURL
			st.DocHTML = doc.HTML()
			return nil
		})
		if err != nil {
			return nil, err
		}
		if a.Browser.Version() == version {
			break
		}
	}

	a.sessions.exportTo(st)
	a.pipeline.exportTo(st, version)

	return json.Marshal(st)
}

// ImportState rebuilds the session from an ExportState snapshot. The agent
// must be freshly constructed (no participants); the importer refuses to
// clobber a live session. The exporting agent's session key is adopted so
// participant HMACs and cookies keep verifying after the move.
func (a *Agent) ImportState(data []byte) error {
	st, err := decodeState(data)
	if err != nil {
		return err
	}
	a.smu.Lock()
	defer a.smu.Unlock()
	return a.importLocked(st)
}

// decodeState parses an ExportState snapshot and checks its schema.
func decodeState(data []byte) (*agentState, error) {
	var st agentState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("rcb-agent: decode state: %w", err)
	}
	if st.Schema != StateSchemaVersion {
		return nil, fmt.Errorf("rcb-agent: state schema %d, want %d", st.Schema, StateSchemaVersion)
	}
	return &st, nil
}

// importLocked installs a decoded snapshot. Caller holds the write side of
// smu.
func (a *Agent) importLocked(st *agentState) error {
	if n := a.sessions.count(); n > 0 {
		return fmt.Errorf("rcb-agent: refusing to import state over a live session (%d participants)", n)
	}

	if st.SessionKey != "" {
		a.Auth = NewAuthenticator(st.SessionKey)
	}
	a.DefaultCacheMode = st.DefaultCacheMode

	if st.DocHTML != "" {
		a.Browser.SetDocument(st.PageURL, dom.Parse(st.DocHTML))
	}
	version := a.Browser.Version()

	a.sessions.importFrom(st)
	a.pipeline.importFrom(st, version, st.Addr == a.Addr)

	// The imported session is live here, whatever this process was before.
	a.relocatedTo = ""
	return nil
}
