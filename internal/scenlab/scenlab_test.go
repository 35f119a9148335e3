package scenlab

// One test per (scenario family × link profile) pair. Fleet size comes
// from SCENLAB_N so every tier shares this harness: plain `go test` runs a
// mid-size fleet, -short (the CI smoke stage) a small one, and
// `make scale` / rcb-bench -scale push it to four digits. Tests run
// sequentially — each fleet is thousands of goroutines at full size, and
// under -race the per-process goroutine ceiling is the binding constraint.

import (
	"errors"
	"fmt"
	"testing"

	"rcb/internal/core"
)

// testN sizes the lite fleet for one test run.
func testN() int {
	if testing.Short() {
		return EnvN(32)
	}
	return EnvN(96)
}

func runScenario(t *testing.T, family string, profile Profile, rounds int) *Result {
	t.Helper()
	res, err := Run(Config{
		Family:    family,
		Profile:   profile,
		N:         testN(),
		Sentinels: 4,
		Rounds:    rounds,
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", family, profile.Name, err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s/%s: violation: %s", family, profile.Name, v)
	}
	if res.ActionsFired > 0 && res.Polls == 0 {
		t.Fatalf("%s/%s: no polls recorded — harness wired wrong", family, profile.Name)
	}
	return res
}

func TestFlashCrowdInstant(t *testing.T) {
	res := runScenario(t, FamilyFlashCrowd, ProfileInstant, 3)
	if res.JoinBuilds > 4 {
		t.Errorf("flash crowd join cost %d builds", res.JoinBuilds)
	}
}

func TestFlashCrowdWAN(t *testing.T) {
	runScenario(t, FamilyFlashCrowd, ProfileWAN, 3)
}

func TestThunderingHerdInstant(t *testing.T) {
	res := runScenario(t, FamilyThunderingHerd, ProfileInstant, 3)
	if res.WakeFanouts == 0 {
		t.Error("herd ran without a single hub fan-out — the fleet never actually parked")
	}
}

func TestChurnLossy(t *testing.T) {
	res := runScenario(t, FamilyChurn, ProfileLossy, 4)
	if res.Rejoins == 0 {
		t.Error("churn family produced zero rejoins — disconnect waves did not bite")
	}
}

func TestLongHaulLossy(t *testing.T) {
	runScenario(t, FamilyLongHaul, ProfileLossy, 5)
}

func TestLongHaulMobile(t *testing.T) {
	if testing.Short() {
		t.Skip("mobile long-haul covered by the full run")
	}
	runScenario(t, FamilyLongHaul, ProfileMobile, 5)
}

func TestSearchRolesWAN(t *testing.T) {
	res := runScenario(t, FamilySearchRoles, ProfileWAN, 4)
	if res.ActionsFired != 4 {
		t.Errorf("search roles fired %d driver inputs, want 4", res.ActionsFired)
	}
}

func TestWriterTurnsHandover(t *testing.T) {
	res := runScenario(t, FamilyWriterTurns, ProfileInstant, 4)
	if res.Moves == 0 {
		t.Log("note: zero MOVED relocations observed — lites may have switched address before touching the fence")
	}
}

// TestClientErrClassifier pins the one classifier lites and sentinels
// share: each protocol violation arrives as a typed error and is flagged,
// while retryable closes, followed relocations to a fleet agent and
// transport noise are not.
func TestClientErrClassifier(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("rcb-snippet: poll: %w", err) }
	cases := []struct {
		name    string
		err     error
		flagged bool
	}{
		{"bare 4xx", wrap(&core.BareStatusError{Status: 403}), true},
		{"bare 5xx", wrap(&core.BareStatusError{Status: 503}), true},
		{"terminal close", wrap(&core.CloseError{Reason: core.CloseKicked, Status: 403}), true},
		{"base mismatch", fmt.Errorf("rcb-snippet: %w: base 5, acknowledged 4 (resyncing)", core.ErrDeltaBase), true},
		{"moved to unknown", wrap(&core.CloseError{Reason: core.CloseMoved, Status: 503, Relocate: "rogue.lan:3000"}), true},
		{"moved to standby", wrap(&core.CloseError{Reason: core.CloseMoved, Status: 503, Relocate: handoverAddr}), false},
		{"retryable close", wrap(&core.CloseError{Reason: core.CloseOvercommitted, Status: 503}), false},
		{"transport", errors.New("rcb-snippet: poll: connection reset"), false},
	}
	for _, tc := range cases {
		f := &fleet{}
		f.clientErr("lite 0", tc.err)
		if got := len(f.violations()) > 0; got != tc.flagged {
			t.Errorf("%s: flagged=%v (%v), want %v", tc.name, got, f.violations(), tc.flagged)
		}
	}
}
