// Package scenlab is the scale-out scenario laboratory: it drives
// thousands of simulated participants through internal/netsim against a
// live RCB-Agent and asserts, per (scenario family × link profile) pair,
// the three session-level invariants the protocol promises at scale —
// convergence (every replica ends byte-identical to a freshly joined
// reference), exactly-once actions (the at-least-once retry paths plus the
// (CID, CSeq) replay filter net out to one application per action), and
// close-reason discipline (no participant ever observes a bare 4xx/5xx
// termination) — plus per-profile staleness and bytes-per-participant
// budgets.
//
// The fleet mixes two participant implementations. The bulk is a scripted
// wire-level driver ("lite"): it speaks the real poll protocol — join
// cookie, ts acknowledgment, delta advertisement, long-poll parking,
// action piggybacking with replay stamps, close-reason handling including
// MOVED relocation — but tracks only the document timestamp instead of
// materializing a DOM, which is what makes four-digit fleets affordable
// in one test process. A small sentinel subset runs the full Snippet loop
// (interval, long-poll, and duplex deliveries) and materializes real
// documents; sentinels are the correctness oracle the convergence check
// runs against.
//
// Families cover the shapes that break naive agents: flash-crowd joins
// inside one debounce window, thundering-herd wakes after a mass park,
// mass disconnect/rejoin churn, long-lived sessions over seeded lossy and
// mobile links, role-asymmetric search co-browsing, and multi-writer
// turns across a live host handover.
//
// SCENLAB_N sizes the fleet (the same knob `make scale` and the CI smoke
// stage set), so the quick and the thousands-strong runs share this one
// harness. rcb-bench -scale snapshots the measured numbers to
// BENCH_scale.json.
package scenlab

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"rcb/internal/netsim"
)

// Profile is a named link shape plus the budgets a healthy session must
// meet over it. Latency-bearing profiles are scaled the same way the chaos
// harness scales them, so round trips stay in the low-millisecond range
// and a full family finishes in CI time.
type Profile struct {
	Name string
	Link netsim.Link

	// MeanStaleness / MaxStaleness bound the fleet-wide mean and worst
	// observed staleness of a measured round: the time from the host
	// mutation landing until a participant holds content at or past the
	// resulting docTime. Ceilings are deliberately generous — they are
	// regression tripwires for the scheduler, not performance targets;
	// BENCH_scale.json carries the actually measured numbers.
	MeanStaleness time.Duration
	MaxStaleness  time.Duration

	// JoinBytes / RoundBytes bound the average wire bytes (both
	// directions) a lite participant spends joining and per measured
	// round afterwards.
	JoinBytes  int64
	RoundBytes int64
}

// The canonical profiles. WAN and Mobile are the paper's environments
// scaled down exactly like the chaos harness scales them; Lossy is the
// jittery 2%-loss link that exercises the reset/rejoin paths.
var (
	ProfileInstant = Profile{
		Name: "instant", Link: netsim.Instant,
		MeanStaleness: 1500 * time.Millisecond, MaxStaleness: 10 * time.Second,
		JoinBytes: 96 << 10, RoundBytes: 48 << 10,
	}
	ProfileWAN = Profile{
		Name: "wan", Link: netsim.WAN.Scaled(40),
		MeanStaleness: 2 * time.Second, MaxStaleness: 12 * time.Second,
		JoinBytes: 96 << 10, RoundBytes: 48 << 10,
	}
	ProfileLossy = Profile{
		Name: "lossy", Link: netsim.Link{Jitter: time.Millisecond, LossRate: 0.02},
		MeanStaleness: 3 * time.Second, MaxStaleness: 20 * time.Second,
		JoinBytes: 128 << 10, RoundBytes: 24 << 10,
	}
	ProfileMobile = Profile{
		Name: "mobile", Link: func() netsim.Link {
			l := netsim.Mobile.Scaled(50)
			l.LossRate = 0.01
			return l
		}(),
		MeanStaleness: 3 * time.Second, MaxStaleness: 20 * time.Second,
		JoinBytes: 128 << 10, RoundBytes: 24 << 10,
	}
)

// Families in canonical order.
const (
	FamilyFlashCrowd     = "flashcrowd"
	FamilyThunderingHerd = "herd"
	FamilyChurn          = "churn"
	FamilyLongHaul       = "longhaul"
	FamilySearchRoles    = "searchroles"
	FamilyWriterTurns    = "writerturns"
)

// Families lists every scenario family the lab implements.
var Families = []string{
	FamilyFlashCrowd, FamilyThunderingHerd, FamilyChurn,
	FamilyLongHaul, FamilySearchRoles, FamilyWriterTurns,
}

// Config sizes one scenario run.
type Config struct {
	Family    string
	Profile   Profile
	N         int   // lite participants
	Sentinels int   // full-Snippet participants (correctness oracles)
	Rounds    int   // measured rounds (waves for churn)
	Seed      int64 // seeds netsim faults and every per-participant RNG
}

// RoundStat is one measured round's staleness distribution over the lite
// fleet.
type RoundStat struct {
	Name   string `json:"name"`
	MeanMS int64  `json:"mean_ms"`
	P95MS  int64  `json:"p95_ms"`
	MaxMS  int64  `json:"max_ms"`
}

// Result is the measured outcome of one scenario run — what rcb-bench
// -scale snapshots into BENCH_scale.json.
type Result struct {
	Family    string `json:"family"`
	Profile   string `json:"profile"`
	N         int    `json:"n"`
	Sentinels int    `json:"sentinels"`
	Rounds    int    `json:"rounds"`
	Seed      int64  `json:"seed"`

	JoinWallMS  int64 `json:"join_wall_ms"`
	TotalWallMS int64 `json:"total_wall_ms"`

	MeanStalenessMS int64       `json:"mean_staleness_ms"`
	MaxStalenessMS  int64       `json:"max_staleness_ms"`
	RoundStats      []RoundStat `json:"round_stats,omitempty"`

	JoinBytesPerLite  int64 `json:"join_bytes_per_lite"`
	RoundBytesPerLite int64 `json:"round_bytes_per_lite"`

	Polls        int64 `json:"polls"`
	ContentPolls int64 `json:"content_polls"`
	DeltaPolls   int64 `json:"delta_polls"`
	EmptyPolls   int64 `json:"empty_polls"`
	Rejoins      int64 `json:"rejoins"`
	Moves        int64 `json:"moves"`

	ActionsFired int `json:"actions_fired"`

	ContentBuilds    int64 `json:"content_builds"`
	JoinBuilds       int64 `json:"join_builds"`
	WakeFanouts      int64 `json:"wake_fanouts"`
	DeltasServed     int64 `json:"deltas_served"`
	DuplicateActions int64 `json:"duplicate_actions"`

	// Violations is empty on a healthy run: budget breaches, close-reason
	// violations, and exactly-once failures land here.
	Violations []string `json:"violations,omitempty"`
}

// EnvN reads the SCENLAB_N fleet-size knob, falling back to def when unset
// or unparsable — the single knob CI smoke, plain `go test`, `make scale`,
// and rcb-bench -scale share.
func EnvN(def int) int {
	if v := os.Getenv("SCENLAB_N"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// Run executes one configured scenario end to end and returns its measured
// result. Structural failures (a round that never converges, a reference
// mismatch) come back as the error; protocol and budget breaches are
// recorded in Result.Violations. Either way the partial Result is
// returned for inspection.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 {
		cfg.N = 64
	}
	if cfg.Sentinels <= 0 {
		cfg.Sentinels = 4
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = ProfileInstant
	}
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	switch cfg.Family {
	case FamilyFlashCrowd:
		err = f.runFlashCrowd()
	case FamilyThunderingHerd:
		err = f.runThunderingHerd()
	case FamilyChurn:
		err = f.runChurn()
	case FamilyLongHaul:
		err = f.runLongHaul()
	case FamilySearchRoles:
		err = f.runSearchRoles()
	case FamilyWriterTurns:
		err = f.runWriterTurns()
	default:
		return nil, fmt.Errorf("scenlab: unknown family %q", cfg.Family)
	}
	res := f.result()
	return res, err
}
