package experiment

import (
	"testing"
	"time"

	"rcb/internal/core"
	"rcb/internal/sites"
)

// TestMeasureDeliveryStaleness runs the delivery ablation at a compressed
// scale and checks its headline claims: long-poll staleness lands well
// under the interval-poll floor, and idle traffic drops to (at most) one
// request per hang instead of one per interval. Bounds are generous —
// this is a correctness check of the ablation, not a benchmark.
func TestMeasureDeliveryStaleness(t *testing.T) {
	spec, ok := sites.SiteByName("google.com")
	if !ok {
		t.Fatal("no google.com site spec")
	}
	const interval = 150 * time.Millisecond
	const idle = 450 * time.Millisecond

	intervalRes, err := MeasureDelivery(spec, core.DeliveryInterval, DeliveryOptions{
		Interval: interval,
		Changes:  3,
		Gap:      30 * time.Millisecond,
		Idle:     idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	longpollRes, err := MeasureDelivery(spec, core.DeliveryLongPoll, DeliveryOptions{
		Interval: interval,
		Wait:     5 * time.Second,
		Changes:  3,
		Gap:      30 * time.Millisecond,
		Idle:     idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("interval: mean=%v max=%v polls=%d idle=%d", intervalRes.MeanStaleness,
		intervalRes.MaxStaleness, intervalRes.Polls, intervalRes.IdlePolls)
	t.Logf("longpoll: mean=%v max=%v polls=%d idle=%d", longpollRes.MeanStaleness,
		longpollRes.MaxStaleness, longpollRes.Polls, longpollRes.IdlePolls)

	// Long-poll delivers on transfer time; even under heavy parallel test
	// load it must land well under the interval floor.
	if longpollRes.MeanStaleness >= interval/2 {
		t.Errorf("long-poll mean staleness %v is not under the interval/2 floor (%v)",
			longpollRes.MeanStaleness, interval/2)
	}
	if longpollRes.MeanStaleness >= intervalRes.MeanStaleness {
		t.Errorf("long-poll staleness %v not better than interval %v",
			longpollRes.MeanStaleness, intervalRes.MeanStaleness)
	}
	// Idle traffic: interval mode keeps polling every interval; a 5s hang
	// issues at most one request in a 450ms idle window.
	if intervalRes.IdlePolls < 2 {
		t.Errorf("interval mode issued %d idle polls in %v, want >= 2", intervalRes.IdlePolls, idle)
	}
	if longpollRes.IdlePolls > 1 {
		t.Errorf("long-poll mode issued %d idle polls in %v, want <= 1", longpollRes.IdlePolls, idle)
	}
	// Every change is one single-flight build on the wake path.
	if longpollRes.Builds < int64(longpollRes.Changes) {
		t.Errorf("long-poll run recorded %d builds for %d changes", longpollRes.Builds, longpollRes.Changes)
	}
}

// TestMeasureDeliveryDuplex runs the persistent-channel arm of the ablation
// at a compressed scale: frames deliver host changes and mirrored actions in
// transfer time on one socket, and an idle session issues zero polling
// requests.
func TestMeasureDeliveryDuplex(t *testing.T) {
	spec, ok := sites.SiteByName("google.com")
	if !ok {
		t.Fatal("no google.com site spec")
	}
	const interval = 150 * time.Millisecond
	const idle = 450 * time.Millisecond

	res, err := MeasureDelivery(spec, core.DeliveryDuplex, DeliveryOptions{
		Interval: interval,
		Changes:  3,
		Gap:      30 * time.Millisecond,
		Idle:     idle,
		Actions:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("duplex: mean=%v max=%v action mean=%v polls=%d idle=%d idleBytes=%d",
		res.MeanStaleness, res.MaxStaleness, res.MeanActionStaleness, res.Polls, res.IdlePolls, res.IdleBytes)

	if res.Mode != "duplex" {
		t.Errorf("duplex run labeled %q", res.Mode)
	}
	// Channel delivery is push in transfer time; it must land well under the
	// interval-poll floor even on a loaded test machine.
	if res.MeanStaleness >= interval/2 {
		t.Errorf("duplex mean staleness %v is not under the interval/2 floor (%v)", res.MeanStaleness, interval/2)
	}
	if res.MeanActionStaleness >= interval/2 {
		t.Errorf("duplex action staleness %v is not under the interval/2 floor (%v)", res.MeanActionStaleness, interval/2)
	}
	// An idle channel issues no polling requests at all; the only idle wire
	// traffic is the ping/pong keep-alive, which at a 5s cadence usually
	// contributes nothing to a 450ms window.
	if res.IdlePolls != 0 {
		t.Errorf("duplex mode issued %d idle polls, want 0", res.IdlePolls)
	}
	// Every change is one single-flight build fanned out as frames.
	if res.Builds < int64(res.Changes) {
		t.Errorf("duplex run recorded %d builds for %d changes", res.Builds, res.Changes)
	}
}

// TestMeasureDeliveryActionStaleness runs the upstream half of the ablation
// at a compressed scale: a plain long-poll sender (no option set) writes
// each action at once, pipelined behind its parked poll, and the agent ends
// the park when the action poll arrives — so an action reaches the mirror
// in transfer time, not after the sender's hang.
func TestMeasureDeliveryActionStaleness(t *testing.T) {
	spec, ok := sites.SiteByName("google.com")
	if !ok {
		t.Fatal("no google.com site spec")
	}
	const wait = 600 * time.Millisecond

	res, err := MeasureDelivery(spec, core.DeliveryLongPoll, DeliveryOptions{
		Interval: 150 * time.Millisecond,
		Wait:     wait,
		Gap:      20 * time.Millisecond,
		Actions:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("long-poll action staleness: mean=%v max=%v", res.MeanActionStaleness, res.MaxActionStaleness)

	// Actions never wait for the hang; even under parallel test load they
	// must land well under half of it.
	if res.Actions != 3 || res.MeanActionStaleness <= 0 {
		t.Fatalf("run measured %d actions (mean %v)", res.Actions, res.MeanActionStaleness)
	}
	if res.MeanActionStaleness >= wait/2 {
		t.Errorf("long-poll action staleness %v is not under half the hang (%v)", res.MeanActionStaleness, wait/2)
	}
	if res.Mode != "longpoll" {
		t.Errorf("run labeled %q, want longpoll", res.Mode)
	}
}
