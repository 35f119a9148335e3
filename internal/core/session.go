package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The session table: who is connected and what the agent still owes them —
// "RCB-Agent knows exactly which participants are connected" (§3.3). It
// holds the roster with each participant's mirror queue, why recently
// removed participants left, and the action replay filter; it knows nothing
// of HTTP, content or policy.
//
// The replay filter exists because the snippet's upstream is at-least-once:
// an action whose answer is lost is resent on the next poll or channel, and
// a rejoining snippet re-sends its unacknowledged outbox. Filtering by
// (client ID, client sequence) before the policy makes delivery
// exactly-once as far as page state is concerned; actions without a CID
// bypass it. It is bounded per client (the last dedupWindow sequence
// numbers) and across clients (maxDedupClients, evicting the least
// recently active). Eviction only happens when admitting a new client, so
// a client that keeps acting never loses its stamps, and one silent through
// a rejoin backoff keeps them unless maxDedupClients others acted since.

// Participant is the published state of one connected co-browsing
// participant — a plain value snapshot, safe to copy.
type Participant struct {
	ID        string
	CacheMode bool
	// LastDocTime is the docTime the participant last acknowledged, carried
	// back on each polling request (the timestamp protocol of §4.1.1).
	LastDocTime int64
	LastSeen    time.Time
	Polls       int64
}

// participantState is the live record behind a Participant: the snapshot
// fields plus the mirror queue, guarded by its own mutex so polls from
// different participants never contend with each other.
type participantState struct {
	mu sync.Mutex
	Participant
	mirror mirrorQueue // other users' actions awaiting delivery
}

// drain takes what one delivery to p needs: its cache mode and every
// queued mirror action.
func (p *participantState) drain() (cacheMode bool, acts []Action) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.CacheMode, p.mirror.drain()
}

const (
	// maxOutbox bounds per-participant queued mirror actions; pointer
	// streams are lossy by nature, so old entries are dropped first.
	maxOutbox = 256
	// rememberedCloses bounds the disconnect-reason memory.
	rememberedCloses = 1024
	// dedupWindow bounds how many recent sequence numbers are remembered
	// per client; anything at or below maxSeq-dedupWindow is treated as a
	// duplicate (the client never retries that far back).
	dedupWindow = 1024
	// maxDedupClients bounds per-agent memory across clients.
	maxDedupClients = 256
)

// mirrorQueue is one participant's outbox: other users' actions awaiting
// delivery to it, oldest first, never more than maxOutbox. Every change
// moves depth, the table-wide total the shed ladder reads, by exactly the
// change in length, so the total cannot drift from the queues. A dropped
// queue (its participant removed) stays empty: a requeue racing the removal
// lands nowhere. The owning participantState's mu guards it.
type mirrorQueue struct {
	acts    []Action
	depth   *atomic.Int64
	dropped bool
}

// set replaces the queue with acts, keeping the newest maxOutbox.
func (q *mirrorQueue) set(acts []Action) {
	if q.dropped {
		acts = nil
	}
	if len(acts) > maxOutbox {
		acts = acts[len(acts)-maxOutbox:]
	}
	if d := len(acts) - len(q.acts); d != 0 {
		q.depth.Add(int64(d))
	}
	q.acts = acts
}

// push enqueues one action at the back.
func (q *mirrorQueue) push(act Action) { q.set(append(q.acts, act)) }

// requeue puts drained actions back at the front, ahead of everything
// queued since they were drained.
func (q *mirrorQueue) requeue(acts []Action) {
	if len(acts) > 0 {
		q.set(append(append(make([]Action, 0, len(acts)+len(q.acts)), acts...), q.acts...))
	}
}

// drain empties the queue, returning what it held.
func (q *mirrorQueue) drain() []Action {
	acts := q.acts
	q.set(nil)
	return acts
}

// drop empties the queue for good.
func (q *mirrorQueue) drop() {
	q.set(nil)
	q.dropped = true
}

// sessionTable is the roster, the close-reason memory and the replay
// filter.
type sessionTable struct {
	// mu guards roster, nextPID and the close-reason memory; polls take
	// only its read side, and a participant's own fields are guarded by its
	// entry's mu. closedReasons remembers why recently removed participants
	// were disconnected, so their next request carries the reason instead
	// of a bare "unknown participant"; closedOrder is its eviction order,
	// oldest first.
	mu            sync.RWMutex
	roster        map[string]*participantState
	nextPID       int
	closedReasons map[string]CloseReason
	closedOrder   []string

	// dmu guards the replay filter. dedupTick is the table-wide activity
	// counter behind LRU eviction.
	dmu       sync.Mutex
	dedup     map[string]*dedupState
	dedupTick int64

	outboxDepth atomic.Int64 // queued mirror actions across all queues
	duplicates  atomic.Int64 // actions dropped by the replay filter
}

func newSessionTable() *sessionTable {
	return &sessionTable{
		roster:        make(map[string]*participantState),
		closedReasons: make(map[string]CloseReason),
		dedup:         make(map[string]*dedupState),
	}
}

// addLocked registers a participant record with outbox as its mirror queue,
// replacing any record under the same ID. Caller holds t.mu.
func (t *sessionTable) addLocked(p Participant, outbox []Action) {
	if old := t.roster[p.ID]; old != nil {
		old.mu.Lock()
		old.mirror.drop()
		old.mu.Unlock()
	}
	ps := &participantState{Participant: p, mirror: mirrorQueue{depth: &t.outboxDepth}}
	ps.mirror.set(outbox)
	t.roster[p.ID] = ps
}

// join admits a new participant in the given cache mode and returns its ID,
// or false when limit (if positive) participants are already connected.
// An ID is never reused while its holder is connected, even when an
// imported snapshot's counter lags its roster.
func (t *sessionTable) join(cacheMode bool, limit int) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if limit > 0 && len(t.roster) >= limit {
		return "", false
	}
	var pid string
	for pid == "" || t.roster[pid] != nil {
		t.nextPID++
		pid = "p" + strconv.Itoa(t.nextPID)
	}
	t.addLocked(Participant{ID: pid, CacheMode: cacheMode, LastSeen: time.Now()}, nil)
	return pid, true
}

// lookup returns pid's record, or — when pid is not connected — why it
// left: the remembered close reason, or CloseUnknown when the disconnect
// is too old to remember or never happened (e.g. the agent restarted).
func (t *sessionTable) lookup(pid string) (*participantState, CloseReason) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p := t.roster[pid]; p != nil {
		return p, CloseNone
	}
	if r := t.closedReasons[pid]; r != CloseNone {
		return nil, r
	}
	return nil, CloseUnknown
}

// remove disconnects pid, remembering reason, and drops its mirror queue.
// It reports whether pid was connected.
func (t *sessionTable) remove(pid string, reason CloseReason) bool {
	t.mu.Lock()
	p := t.roster[pid]
	if p != nil {
		delete(t.roster, pid)
		if len(t.closedOrder) >= rememberedCloses {
			delete(t.closedReasons, t.closedOrder[0])
			t.closedOrder = t.closedOrder[1:]
		}
		if _, known := t.closedReasons[pid]; !known {
			t.closedOrder = append(t.closedOrder, pid)
		}
		t.closedReasons[pid] = reason
	}
	t.mu.Unlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	p.mirror.drop()
	p.mu.Unlock()
	return true
}

// broadcast queues act for every participant except its originator and
// calls queued with each recipient's ID. The queued copy holds only what a
// receiver applies: the replay stamps (Seq, CID, CSeq) stay at the agent,
// since a mirrored CID would let any participant forge its sender's stamps
// and make the replay filter drop the sender's next actions. The roster is
// only read-locked; each enqueue takes that participant's own lock.
func (t *sessionTable) broadcast(act Action, queued func(pid string)) {
	mirror := Action{Kind: act.Kind, Target: act.Target, Value: act.Value,
		Fields: act.Fields, X: act.X, Y: act.Y, From: act.From}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, p := range t.roster {
		if p.ID == act.From {
			continue
		}
		p.mu.Lock()
		p.mirror.push(mirror)
		p.mu.Unlock()
		queued(p.ID)
	}
}

// requeue returns drained mirror actions to the front of pid's queue after
// a failed delivery, so the recovery path still delivers them.
func (t *sessionTable) requeue(pid string, acts []Action) {
	if p, _ := t.lookup(pid); p != nil {
		p.mu.Lock()
		p.mirror.requeue(acts)
		p.mu.Unlock()
	}
}

// list copies every connected participant's published state.
func (t *sessionTable) list() []Participant {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Participant, 0, len(t.roster))
	for _, p := range t.roster {
		p.mu.Lock()
		out = append(out, p.Participant)
		p.mu.Unlock()
	}
	return out
}

// count reports how many participants are connected.
func (t *sessionTable) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.roster)
}

// dedupState is one client's replay filter.
type dedupState struct {
	maxSeq int64
	recent map[int64]struct{}
	order  []int64   // FIFO of entries in recent, for per-client eviction
	touch  int64     // table-wide activity counter at last accepted action
	seen   time.Time // wall time of the last accepted action, for the state codec
}

func (d *dedupState) fresh(seq int64) bool {
	if seq <= d.maxSeq-dedupWindow {
		return false
	}
	if _, dup := d.recent[seq]; dup {
		return false
	}
	d.recent[seq] = struct{}{}
	d.order = append(d.order, seq)
	if len(d.order) > dedupWindow {
		delete(d.recent, d.order[0])
		d.order = d.order[1:]
	}
	if seq > d.maxSeq {
		d.maxSeq = seq
	}
	return true
}

// evictDedupLocked drops the least recently active client to make room
// for a new one. Caller holds t.dmu.
func (t *sessionTable) evictDedupLocked() {
	var victim string
	var minTouch int64 = -1
	for cid, st := range t.dedup {
		if minTouch < 0 || st.touch < minTouch {
			victim, minTouch = cid, st.touch
		}
	}
	delete(t.dedup, victim)
}

// fresh filters out actions the table has already accepted from the same
// client, returning the survivors in order. The caller's slice is never
// mutated: when every action is fresh it is returned as-is, and the first
// dropped duplicate switches to a private copy (copy-on-first-drop) — a
// caller retaining the decoded actions sees them unchanged. Safe for
// concurrent use.
func (t *sessionTable) fresh(actions []Action) []Action {
	out := actions
	copied := false
	t.dmu.Lock()
	defer t.dmu.Unlock()
	for i, act := range actions {
		if t.freshLocked(act) {
			if copied {
				out = append(out, act)
			}
			continue
		}
		t.duplicates.Add(1)
		if !copied {
			out = append(make([]Action, 0, len(actions)-1), actions[:i]...)
			copied = true
		}
	}
	return out
}

// freshLocked stamps one action through the replay filter and reports
// whether it is new. Caller holds t.dmu.
func (t *sessionTable) freshLocked(act Action) bool {
	if act.CID == "" {
		return true
	}
	st := t.dedup[act.CID]
	if st == nil {
		if len(t.dedup) >= maxDedupClients {
			t.evictDedupLocked()
		}
		st = &dedupState{recent: make(map[int64]struct{})}
		t.dedup[act.CID] = st
	}
	t.dedupTick++
	st.touch = t.dedupTick
	st.seen = time.Now()
	return st.fresh(act.CSeq)
}

// clients reports how many clients hold replay-filter state.
func (t *sessionTable) clients() int {
	t.dmu.Lock()
	defer t.dmu.Unlock()
	return len(t.dedup)
}

// exportTo writes the table's half of the session state: the roster sorted
// by ID with each mirror queue, the close-reason memory in eviction order,
// and the replay stamps least-recently-active first, so the importer
// rebuilds the LRU order exactly.
func (t *sessionTable) exportTo(st *agentState) {
	t.mu.RLock()
	st.NextPID = t.nextPID
	for _, p := range t.roster {
		p.mu.Lock()
		st.Participants = append(st.Participants, participantSnapshot{
			ID:          p.ID,
			CacheMode:   p.CacheMode,
			LastDocTime: p.LastDocTime,
			LastSeenMS:  p.LastSeen.UnixMilli(),
			Polls:       p.Polls,
			Outbox:      append([]Action(nil), p.mirror.acts...),
		})
		p.mu.Unlock()
	}
	for _, pid := range t.closedOrder {
		st.Closed = append(st.Closed, closedSnapshot{PID: pid, Reason: t.closedReasons[pid].String()})
	}
	t.mu.RUnlock()
	sort.Slice(st.Participants, func(i, j int) bool {
		return st.Participants[i].ID < st.Participants[j].ID
	})

	t.dmu.Lock()
	defer t.dmu.Unlock()
	cids := make([]string, 0, len(t.dedup))
	for cid := range t.dedup {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return t.dedup[cids[i]].touch < t.dedup[cids[j]].touch })
	for _, cid := range cids {
		d := t.dedup[cid]
		st.Dedup = append(st.Dedup, dedupSnapshot{
			CID:    cid,
			MaxSeq: d.maxSeq,
			Recent: append([]int64(nil), d.order...),
			SeenMS: d.seen.UnixMilli(),
		})
	}
}

// importFrom loads st's half of the session state into a table with no
// participants (ImportState refuses a live session).
func (t *sessionTable) importFrom(st *agentState) {
	t.mu.Lock()
	t.nextPID = st.NextPID
	t.roster = make(map[string]*participantState, len(st.Participants))
	for _, ps := range st.Participants {
		t.addLocked(Participant{
			ID:          ps.ID,
			CacheMode:   ps.CacheMode,
			LastDocTime: ps.LastDocTime,
			LastSeen:    time.UnixMilli(ps.LastSeenMS),
			Polls:       ps.Polls,
		}, ps.Outbox)
	}
	t.closedReasons = make(map[string]CloseReason, len(st.Closed))
	t.closedOrder = t.closedOrder[:0]
	for _, cs := range st.Closed {
		t.closedOrder = append(t.closedOrder, cs.PID)
		t.closedReasons[cs.PID] = ParseCloseReason(cs.Reason)
	}
	t.mu.Unlock()

	t.dmu.Lock()
	defer t.dmu.Unlock()
	t.dedup = make(map[string]*dedupState, len(st.Dedup))
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
		t.dedup[ds.CID] = d
	}
	t.dedupTick = int64(len(st.Dedup))
}

// Participants lists connected participants — "RCB-Agent knows exactly
// which participants are connected, and it can notify this information to a
// co-browsing host or participant" (§3.3).
func (a *Agent) Participants() []Participant { return a.sessions.list() }

// ParticipantCount reports how many participants are connected without
// copying the roster — Participants allocates one record per participant,
// which a scale harness polling the count at 4k participants cannot afford.
func (a *Agent) ParticipantCount() int { return a.sessions.count() }

// SetParticipantMode switches one participant between cache and non-cache
// mode ("RCB-Agent can allow different participant browsers to use
// different modes", §4.1.2).
func (a *Agent) SetParticipantMode(pid string, cacheMode bool) error {
	p, _ := a.sessions.lookup(pid)
	if p == nil {
		return fmt.Errorf("rcb-agent: no participant %s", pid)
	}
	p.mu.Lock()
	p.CacheMode = cacheMode
	p.mu.Unlock()
	return nil
}

// Disconnect removes a participant (leave at any time, §3.3). A long-poll
// the participant has parked wakes immediately and completes with the same
// 403 a live poll from an unknown participant gets — now carrying the
// Leave close reason — so the client learns of the disconnect without
// waiting out the hang.
func (a *Agent) Disconnect(pid string) { a.DisconnectWith(pid, CloseLeave) }

// Kick ejects a participant by host decision. Unlike Leave-class removals
// the reason is non-retryable: the snippet must not rejoin.
func (a *Agent) Kick(pid string) { a.DisconnectWith(pid, CloseKicked) }

// DisconnectWith removes a participant recording why, so the participant's
// next request (or its parked long-poll, woken immediately) answers with
// the reason instead of a bare 403. rememberedCloses bounds the memory.
func (a *Agent) DisconnectWith(pid string, reason CloseReason) {
	if reason == CloseNone {
		reason = CloseLeave
	}
	if a.sessions.remove(pid, reason) {
		if reason == CloseStaleReader {
			a.staleKicks.Add(1)
		}
		a.logf("rcb-agent: participant %s disconnected: %s", pid, reason)
	}
	// Parked polls and a live channel learn of the disconnect at once, with
	// the reason on the wire (a close frame, for the channel).
	a.hub.disconnect(pid, closeSignal{reason: reason})
}

// Broadcast queues an action for delivery to every participant except its
// originator — pointer mirroring (paper step 9) — and wakes any long-poll
// or channel a recipient holds, so mirror actions push out immediately
// instead of riding the next interval.
func (a *Agent) Broadcast(act Action) {
	a.sessions.broadcast(act, a.hub.notifyPID)
	a.maybeEvalLoad()
}

// HostAction reports a host-side interaction (pointer move, scroll) for
// mirroring to all participants.
func (a *Agent) HostAction(act Action) {
	act.From = "host"
	a.Broadcast(act)
}

// DuplicateActions reports actions dropped by the replay filter.
func (a *Agent) DuplicateActions() int64 { return a.sessions.duplicates.Load() }

// OutboxDepth reports the total queued mirror actions across participants —
// one of the shed ladder's load signals.
func (a *Agent) OutboxDepth() int64 { return a.sessions.outboxDepth.Load() }

// DedupClients reports how many clients currently hold replay-filter state.
func (a *Agent) DedupClients() int { return a.sessions.clients() }
