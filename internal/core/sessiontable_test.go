package core

// Unit tests for the session table (session.go) with no server: no
// network, no agent, no content — the roster, the mirror queues and the
// close-reason memory driven directly.

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

// reimport round-trips t's half of the session state through the JSON codec
// into a fresh table, as a checkpoint restore or a handover does.
func reimport(tb testing.TB, t *sessionTable) *sessionTable {
	tb.Helper()
	var st agentState
	t.exportTo(&st)
	data, err := json.Marshal(&st)
	if err != nil {
		tb.Fatal(err)
	}
	var back agentState
	if err := json.Unmarshal(data, &back); err != nil {
		tb.Fatal(err)
	}
	fresh := newSessionTable()
	fresh.importFrom(&back)
	return fresh
}

// queueModel appends add to the plain-slice model of one participant's
// mirror queue, keeping the newest maxOutbox.
func queueModel(q []Action, add ...Action) []Action {
	q = append(q, add...)
	if len(q) > maxOutbox {
		q = q[len(q)-maxOutbox:]
	}
	return q
}

func sameActions(a, b []Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].X != b[i].X || a[i].From != b[i].From {
			return false
		}
	}
	return true
}

// TestSessionTableQueuesMatchModel drives seeded random broadcasts, drains,
// requeues, disconnects and export→import round trips against a plain-slice
// model. After every step OutboxDepth equals the sum of the queue lengths,
// no queue exceeds maxOutbox, and every queue equals its model — so
// requeued actions stay ahead of the ones broadcast after their drain. A
// requeue through the record of a participant already removed (a channel
// writer racing the disconnect) must leave the depth untouched.
func TestSessionTableQueuesMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := newSessionTable()
		model := map[string][]Action{} // connected pid → its queue
		held := map[string][]Action{}  // pid → last drained batch, not yet requeued
		var removed []*participantState
		var x int // every action gets a distinct X

		live := func() []string {
			pids := make([]string, 0, len(model))
			for pid := range model {
				pids = append(pids, pid)
			}
			sort.Strings(pids)
			return pids
		}
		pick := func() string {
			pids := live()
			return pids[rng.Intn(len(pids))]
		}

		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			switch {
			case len(model) == 0:
				op = 0
			case op <= 1 && len(model) >= 8:
				op = 2 // keep the roster small: broadcasts cost one push per participant
			}
			var what string
			switch op {
			case 0, 1:
				what = "join"
				pid, ok := tbl.join(false, 0)
				if !ok {
					t.Fatalf("seed %d step %d: join refused with no limit", seed, step)
				}
				model[pid] = nil
			case 2, 3, 4:
				// A burst from one participant or the host, long enough
				// that queues overflow maxOutbox now and then.
				from := "host"
				if rng.Intn(2) == 0 {
					from = pick()
				}
				what = "broadcast from " + from
				for n := rng.Intn(80); n >= 0; n-- {
					x++
					act := Action{Kind: ActionMouseMove, X: x, From: from}
					tbl.broadcast(act, func(string) {})
					for pid := range model {
						if pid != from {
							model[pid] = queueModel(model[pid], act)
						}
					}
				}
			case 5, 6:
				pid := pick()
				what = "drain " + pid
				p, _ := tbl.lookup(pid)
				_, got := p.drain()
				if !sameActions(got, model[pid]) {
					t.Fatalf("seed %d step %d: drained %d actions from %s, model holds %d", seed, step, len(got), pid, len(model[pid]))
				}
				model[pid], held[pid] = nil, got
			case 7:
				pid := pick()
				what = "requeue " + pid
				tbl.requeue(pid, held[pid])
				model[pid] = queueModel(append([]Action(nil), held[pid]...), model[pid]...)
				delete(held, pid)
			case 8:
				pid := pick()
				what = "remove " + pid
				p, _ := tbl.lookup(pid)
				if !tbl.remove(pid, CloseLeave) {
					t.Fatalf("seed %d step %d: remove(%s) found no participant", seed, step, pid)
				}
				removed = append(removed, p)
				delete(model, pid)
				delete(held, pid)
				if len(removed) > 0 {
					stale := removed[rng.Intn(len(removed))]
					stale.mu.Lock()
					stale.mirror.requeue([]Action{{Kind: ActionMouseMove, X: -1}})
					stale.mu.Unlock()
				}
			case 9:
				// Rarer than the rest: the JSON round trip dominates the cost.
				what = "export→import"
				if rng.Intn(4) == 0 {
					tbl = reimport(t, tbl)
				}
			}

			if n := tbl.count(); n != len(model) {
				t.Fatalf("seed %d step %d (%s): %d participants, model has %d", seed, step, what, n, len(model))
			}
			var sum int64
			for _, pid := range live() {
				p, why := tbl.lookup(pid)
				if p == nil {
					t.Fatalf("seed %d step %d (%s): %s missing (%v)", seed, step, what, pid, why)
				}
				p.mu.Lock()
				q := p.mirror.acts
				p.mu.Unlock()
				if len(q) > maxOutbox {
					t.Fatalf("seed %d step %d (%s): %s queues %d actions, cap %d", seed, step, what, pid, len(q), maxOutbox)
				}
				if !sameActions(q, model[pid]) {
					t.Fatalf("seed %d step %d (%s): %s queue diverged from the model (%d vs %d actions)", seed, step, what, pid, len(q), len(model[pid]))
				}
				sum += int64(len(q))
			}
			if got := tbl.outboxDepth.Load(); got != sum {
				t.Fatalf("seed %d step %d (%s): OutboxDepth %d, queues hold %d", seed, step, what, got, sum)
			}
		}
	}
}

// TestSessionTableRemembersClosesOldestFirst checks the close-reason
// memory: it holds at most rememberedCloses entries, evicts the oldest
// first, and keeps its eviction order through export→import.
func TestSessionTableRemembersClosesOldestFirst(t *testing.T) {
	const extra = 10
	reasons := []CloseReason{CloseLeave, CloseKicked, CloseStaleReader, CloseOvercommitted}
	tbl := newSessionTable()
	pids := make([]string, rememberedCloses+extra)
	for i := range pids {
		pids[i], _ = tbl.join(false, 0)
	}
	for i, pid := range pids {
		tbl.remove(pid, reasons[i%len(reasons)])
	}

	check := func(tbl *sessionTable, when string) {
		t.Helper()
		if n, m := len(tbl.closedReasons), len(tbl.closedOrder); n != rememberedCloses || m != rememberedCloses {
			t.Fatalf("%s: %d reasons, %d in order, want %d", when, n, m, rememberedCloses)
		}
		for i, pid := range pids {
			want := reasons[i%len(reasons)]
			if i < extra {
				want = CloseUnknown // evicted: the oldest go first
			} else if tbl.closedOrder[i-extra] != pid {
				t.Fatalf("%s: eviction order slot %d holds %s, want %s", when, i-extra, tbl.closedOrder[i-extra], pid)
			}
			if p, why := tbl.lookup(pid); p != nil || why != want {
				t.Fatalf("%s: lookup(%s) = %v, %v; want %v", when, pid, p, why, want)
			}
		}
	}
	check(tbl, "after removals")
	back := reimport(t, tbl)
	check(back, "after export→import")

	// The imported order is live: the next removal evicts the oldest entry.
	pid, _ := back.join(false, 0)
	back.remove(pid, CloseKicked)
	if _, why := back.lookup(pids[extra]); why != CloseUnknown {
		t.Fatalf("oldest remembered close survived the next removal: %v", why)
	}
	if _, why := back.lookup(pids[extra+1]); why != reasons[(extra+1)%len(reasons)] {
		t.Fatalf("second-oldest close lost: %v", why)
	}
	if _, why := back.lookup(pid); why != CloseKicked {
		t.Fatalf("newest close = %v, want KICKED", why)
	}
}

// TestSessionTableJoinSkipsImportedIDs imports a snapshot whose ID counter
// lags its roster, as a hand-edited or corrupted checkpoint can: a join must
// get a fresh ID, not take over an imported participant's identity.
func TestSessionTableJoinSkipsImportedIDs(t *testing.T) {
	tbl := newSessionTable()
	tbl.importFrom(&agentState{Participants: []participantSnapshot{{ID: "p1", Polls: 7}, {ID: "p2"}}})
	pid, ok := tbl.join(false, 0)
	if !ok || pid == "p1" || pid == "p2" {
		t.Fatalf("join after import = %q, %v; want a fresh ID", pid, ok)
	}
	if p, _ := tbl.lookup("p1"); p == nil || p.Polls != 7 {
		t.Fatalf("imported p1 replaced by the join: %+v", p)
	}
}
