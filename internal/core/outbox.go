package core

import "math"

// Outbox is a participant's upstream: every action it generated that the
// agent has not yet confirmed, in CSeq order, plus a send cursor that splits
// them into taken (on the wire, awaiting an answer) and unsent. The paper's
// upstream rule — a participant's actions ride its next POST (§4.2.1) —
// becomes one discipline every transport follows: Take the unsent tail,
// Ack what the agent's answer confirmed, Rewind when the transport failed.
// An action therefore waits in exactly one place, leaves in stamp order, and
// is dropped only once the agent confirmed it merged; a replay after a
// rewind is absorbed by the agent's (CID, CSeq) filter.
//
// The outbox does no I/O and holds no lock: its owner guards it. It has no
// DOM either, so a scripted wire-level participant drives it exactly as the
// snippet does.
type Outbox struct {
	// CID is the replay-filter client id stamped on every action.
	CID  string
	seq  int64    // last CSeq stamped
	acts []Action // unconfirmed actions, CSeq ascending
	sent int      // acts[:sent] are taken
}

// stamp assigns the next (CID, CSeq) to an unstamped action. A stamped one
// keeps its stamp — a replay must look like the original to the filter —
// and, when it carries this outbox's CID, later stamps continue after it.
func (o *Outbox) stamp(act *Action) {
	if act.CID != "" {
		if act.CID == o.CID && act.CSeq > o.seq {
			o.seq = act.CSeq
		}
		return
	}
	o.seq++
	act.CID, act.CSeq = o.CID, o.seq
}

// Add stamps act and appends it to the unsent tail.
func (o *Outbox) Add(act Action) {
	o.stamp(&act)
	o.acts = append(o.acts, act)
}

// Len reports how many actions await confirmation, taken or not.
func (o *Outbox) Len() int { return len(o.acts) }

// Take returns the unsent tail and marks it taken. The batch stays valid
// and unchanged whatever the outbox does next; callers must not modify it.
func (o *Outbox) Take() []Action {
	batch := o.acts[o.sent:len(o.acts):len(o.acts)]
	o.sent = len(o.acts)
	return batch
}

// Ack drops every taken action with CSeq ≤ through: a cumulative
// confirmation from a transport that carries frames in CSeq order.
func (o *Outbox) Ack(through int64) { o.ackRange(math.MinInt64, through) }

// AckBatch drops the taken actions of one batch Take returned, after the
// answer that carried it confirmed the agent merged them. Only that batch's
// CSeq range goes: an earlier batch still in flight on another transport
// keeps its entries until its own answer arrives.
func (o *Outbox) AckBatch(batch []Action) {
	if len(batch) > 0 {
		o.ackRange(batch[0].CSeq, batch[len(batch)-1].CSeq)
	}
}

// Rewind makes every unconfirmed action sendable again, in order: the
// transport that took them failed, and whatever the agent did merge is
// filtered on replay.
func (o *Outbox) Rewind() { o.sent = 0 }

// ackRange drops the taken actions with lo ≤ CSeq ≤ hi. A prefix is
// resliced away; otherwise the survivors are copied into a fresh slice, so
// no batch Take returned is ever written over.
func (o *Outbox) ackRange(lo, hi int64) {
	i := 0
	for i < o.sent && o.acts[i].CSeq < lo {
		i++
	}
	j := i
	for j < o.sent && o.acts[j].CSeq <= hi {
		j++
	}
	switch {
	case i == j:
		return
	case i == 0:
		o.acts = o.acts[j:]
	default:
		o.acts = append(o.acts[:i:i], o.acts[j:]...)
	}
	o.sent -= j - i
	if len(o.acts) == 0 {
		o.acts = nil
	}
}
