package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"rcb/internal/browser"
	"rcb/internal/dom"
)

// Versioned session state codec. ExportState serializes everything an agent
// process owns about a live session — the participant table with its
// delivery outboxes, the host document and docTime clock, the (CID, CSeq)
// replay stamps, the moderation queue, the object mapping, and the prepared
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

	NextPID   int   `json:"nextPID"`
	ActionSeq int64 `json:"actionSeq"`

	Participants []participantSnapshot `json:"participants"`
	Closed       []closedSnapshot      `json:"closed,omitempty"`
	Dedup        []dedupSnapshot       `json:"dedup,omitempty"`
	Pending      []pendingSnapshot     `json:"pending,omitempty"`
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

type pendingSnapshot struct {
	Seq    int64  `json:"seq"`
	PID    string `json:"pid"`
	Action Action `json:"action"`
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
	return a.exportLocked()
}

func (a *Agent) exportLocked() ([]byte, error) {
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

	a.tmu.Lock()
	st.DocTime = a.lastDocTime
	a.tmu.Unlock()

	a.pmu.RLock()
	st.NextPID = a.nextPID
	for _, p := range a.participants {
		p.mu.Lock()
		st.Participants = append(st.Participants, participantSnapshot{
			ID:          p.ID,
			CacheMode:   p.CacheMode,
			LastDocTime: p.LastDocTime,
			LastSeenMS:  p.LastSeen.UnixMilli(),
			Polls:       p.Polls,
			Outbox:      append([]Action(nil), p.outbox...),
		})
		p.mu.Unlock()
	}
	for _, pid := range a.closedOrder {
		st.Closed = append(st.Closed, closedSnapshot{PID: pid, Reason: a.closedReasons[pid].String()})
	}
	a.pmu.RUnlock()
	sort.Slice(st.Participants, func(i, j int) bool {
		return st.Participants[i].ID < st.Participants[j].ID
	})

	a.dmu.Lock()
	type dedupPair struct {
		snap  dedupSnapshot
		touch int64
	}
	pairs := make([]dedupPair, 0, len(a.dedup))
	for cid, d := range a.dedup {
		pairs = append(pairs, dedupPair{
			snap: dedupSnapshot{
				CID:    cid,
				MaxSeq: d.maxSeq,
				Recent: append([]int64(nil), d.order...),
				SeenMS: d.seen.UnixMilli(),
			},
			touch: d.touch,
		})
	}
	a.dmu.Unlock()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].touch < pairs[j].touch })
	for _, p := range pairs {
		st.Dedup = append(st.Dedup, p.snap)
	}

	a.amu.Lock()
	st.ActionSeq = a.actionSeq
	for _, pa := range a.pending {
		st.Pending = append(st.Pending, pendingSnapshot{Seq: pa.Seq, PID: pa.ParticipantID, Action: pa.Action})
	}
	a.amu.Unlock()

	a.omu.Lock()
	for path, url := range a.mapping {
		st.Objects = append(st.Objects, objectSnapshot{Path: path, URL: url})
	}
	a.omu.Unlock()
	sort.Slice(st.Objects, func(i, j int) bool {
		pi, pj := st.Objects[i].Path, st.Objects[j].Path
		if len(pi) != len(pj) {
			return len(pi) < len(pj) // "/obj/t2" before "/obj/t10"
		}
		return pi < pj
	})

	// Collect the builds under cmu and marshal the snapshots no poll has
	// demanded yet only after releasing it, so a marshal never stalls the
	// polls that take cmu.
	type exportBuild struct {
		mode bool
		prep *PreparedContent
		ring []*PreparedContent
	}
	var builds []exportBuild
	a.cmu.Lock()
	for _, mode := range [2]bool{false, true} {
		prep := a.prepared[mode]
		if prep == nil || prep.version != version {
			continue
		}
		builds = append(builds, exportBuild{mode, prep, a.prevRing[mode]})
	}
	a.cmu.Unlock()
	for _, b := range builds {
		ps := preparedSnapshot{CacheMode: b.mode, DocTime: b.prep.docTime, XML: string(b.prep.XML())}
		if len(b.ring) > 0 {
			ps.PrevDocTime = b.ring[0].docTime
			ps.PrevXML = string(b.ring[0].XML())
			for _, r := range b.ring[1:] {
				ps.Ring = append(ps.Ring, ringSnapshot{DocTime: r.docTime, XML: string(r.XML())})
			}
		}
		st.Prepared = append(st.Prepared, ps)
	}

	return json.Marshal(st)
}

// ImportState rebuilds the session from an ExportState snapshot. The agent
// must be freshly constructed (no participants); the importer refuses to
// clobber a live session. The exporting agent's session key is adopted so
// participant HMACs and cookies keep verifying after the move.
func (a *Agent) ImportState(data []byte) error {
	var st agentState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("rcb-agent: decode state: %w", err)
	}
	if st.Schema != StateSchemaVersion {
		return fmt.Errorf("rcb-agent: state schema %d, want %d", st.Schema, StateSchemaVersion)
	}

	a.smu.Lock()
	defer a.smu.Unlock()

	a.pmu.Lock()
	if len(a.participants) > 0 {
		a.pmu.Unlock()
		return fmt.Errorf("rcb-agent: refusing to import state over a live session (%d participants)", len(a.participants))
	}
	a.pmu.Unlock()

	if st.SessionKey != "" {
		a.Auth = NewAuthenticator(st.SessionKey)
	}
	a.DefaultCacheMode = st.DefaultCacheMode

	if st.DocHTML != "" {
		a.Browser.SetDocument(st.PageURL, dom.Parse(st.DocHTML))
	}
	version := a.Browser.Version()

	a.tmu.Lock()
	if st.DocTime > a.lastDocTime {
		a.lastDocTime = st.DocTime
	}
	a.tmu.Unlock()

	var outboxTotal int64
	a.pmu.Lock()
	a.nextPID = st.NextPID
	a.participants = make(map[string]*participantState, len(st.Participants))
	for _, ps := range st.Participants {
		a.participants[ps.ID] = &participantState{
			Participant: Participant{
				ID:          ps.ID,
				CacheMode:   ps.CacheMode,
				LastDocTime: ps.LastDocTime,
				LastSeen:    time.UnixMilli(ps.LastSeenMS),
				Polls:       ps.Polls,
			},
			outbox: append([]Action(nil), ps.Outbox...),
		}
		outboxTotal += int64(len(ps.Outbox))
	}
	a.closedReasons = make(map[string]CloseReason, len(st.Closed))
	a.closedOrder = a.closedOrder[:0]
	for _, cs := range st.Closed {
		a.closedOrder = append(a.closedOrder, cs.PID)
		a.closedReasons[cs.PID] = ParseCloseReason(cs.Reason)
	}
	a.pmu.Unlock()
	a.outboxDepth.Store(outboxTotal)

	a.dmu.Lock()
	a.dedup = make(map[string]*dedupState, len(st.Dedup))
	for i, ds := range st.Dedup {
		d := &dedupState{
			maxSeq: ds.MaxSeq,
			recent: make(map[int64]struct{}, len(ds.Recent)),
			order:  append([]int64(nil), ds.Recent...),
			touch:  int64(i + 1),
			seen:   time.UnixMilli(ds.SeenMS),
		}
		for _, seq := range ds.Recent {
			d.recent[seq] = struct{}{}
		}
		a.dedup[ds.CID] = d
	}
	a.dedupTick = int64(len(st.Dedup))
	a.dmu.Unlock()

	a.amu.Lock()
	a.actionSeq = st.ActionSeq
	a.pending = a.pending[:0]
	for _, ps := range st.Pending {
		a.pending = append(a.pending, PendingAction{Seq: ps.Seq, ParticipantID: ps.PID, Action: ps.Action})
	}
	a.amu.Unlock()

	a.omu.Lock()
	a.mapping = make(map[string]string, len(st.Objects))
	a.tokens = make(map[string]string, len(st.Objects))
	for _, os := range st.Objects {
		a.mapping[os.Path] = os.URL
		a.tokens[os.URL] = os.Path
	}
	a.omu.Unlock()

	a.cmu.Lock()
	a.prepared = make(map[bool]*PreparedContent)
	a.prevRing = make(map[bool][]*PreparedContent)
	a.delta = make(map[bool]map[int64]*deltaEntry)
	a.buildHist = make(map[bool][]int64)
	for _, ps := range st.Prepared {
		if ps.CacheMode && st.Addr != a.Addr {
			// Cache-mode XML embeds object URLs minted for the exporting
			// agent's address; at a new address the next poll must rebuild.
			continue
		}
		// Rebuild the ring newest-first (Prev fields, then Ring), assigning
		// descending synthetic versions below the current build's.
		var ring []*PreparedContent
		if ps.PrevXML != "" {
			ring = append(ring, importedPrepared(version-1, ps.PrevDocTime, ps.PrevXML))
			for _, rs := range ps.Ring {
				ring = append(ring, importedPrepared(version-1-int64(len(ring)), rs.DocTime, rs.XML))
			}
			a.prevRing[ps.CacheMode] = ring
		}
		a.prepared[ps.CacheMode] = importedPrepared(version, ps.DocTime, ps.XML)
		// buildHist runs oldest first: reversed ring docTimes, then current.
		hist := make([]int64, 0, len(ring)+1)
		for i := len(ring) - 1; i >= 0; i-- {
			hist = append(hist, ring[i].docTime)
		}
		hist = append(hist, ps.DocTime)
		a.buildHist[ps.CacheMode] = hist
	}
	a.cmu.Unlock()

	// The imported session is live here, whatever this process was before.
	a.relocatedTo = ""
	return nil
}

// importedPrepared reconstructs a PreparedContent from exported XML. A
// snapshot whose XML no longer parses degrades gracefully: content stays
// nil, which only disables the delta fast path.
func importedPrepared(version, docTime int64, xml string) *PreparedContent {
	b := []byte(xml)
	prep := &PreparedContent{version: version, docTime: docTime}
	// The snapshot arrives marshaled: fill it through the lazy path's guard
	// so no demand ever re-renders it.
	prep.xmlOnce.Do(func() { prep.setXML(b) })
	if nc, err := Unmarshal(b); err == nil {
		prep.content = nc
	}
	return prep
}

// RestoreAgent constructs an agent at addr from an ExportState snapshot,
// installing the session document into b. The restored agent serves the
// same participant set — PR 6's auto-rejoin loop reconnects every snippet
// with a delta or full resync instead of a dead session.
func RestoreAgent(b *browser.Browser, addr string, data []byte) (*Agent, error) {
	a := NewAgent(b, addr)
	if err := a.ImportState(data); err != nil {
		return nil, err
	}
	return a, nil
}
