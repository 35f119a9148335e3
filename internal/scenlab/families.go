package scenlab

// The six scenario families. Each follows the same skeleton — build the
// fleet, drive the family's stress shape through measured rounds, then run
// the closing audit (exactly-once, timestamp barrier, byte-identical
// sentinels, byte budgets) — and differs only in what it throws at the
// agent in between.

import (
	"fmt"
	"math/rand"
	"time"

	"rcb/internal/core"
	"rcb/internal/httpwire"
)

// Generous wall-clock ceilings: the lab runs under -race in CI, where
// everything is several times slower. Budgets that matter are the
// per-profile staleness/byte ones; these only bound hangs.
const (
	joinDeadline     = 120 * time.Second
	roundDeadline    = 60 * time.Second
	convergeDeadline = 60 * time.Second
)

// runFlashCrowd joins the whole fleet at once — every lite dials together —
// and requires the join storm to share builds: the single-flight guard must
// serve N initial syncs from O(1) renders.
func (f *fleet) runFlashCrowd() error {
	if err := f.spawnSentinels(); err != nil {
		return err
	}
	f.spawnLites(0)
	if err := f.waitAllSynced(joinDeadline); err != nil {
		return err
	}
	// The entire crowd synced off one unchanged document: the build cache
	// must have rendered it a handful of times at most (one per delivery
	// mode variant), not once per participant.
	if f.joinBuilds > 4 {
		f.violate("flash-crowd join of %d lites cost %d content builds, want <= 4 (single-flight regressed)",
			len(f.lites), f.joinBuilds)
	}
	for r := 0; r < f.cfg.Rounds; r++ {
		name := fmt.Sprintf("flash-%d", r)
		if err := f.measuredRound(name, func() error { return f.hostMutate(name) }, roundDeadline); err != nil {
			return err
		}
	}
	if err := f.converge(convergeDeadline); err != nil {
		return err
	}
	f.checkByteBudgets()
	return nil
}

// runThunderingHerd parks the entire fleet on long polls, lands one
// mutation per round, and requires the hub to wake everyone in exactly one
// fan-out round backed by O(1) content builds.
func (f *fleet) runThunderingHerd() error {
	f.allLongPoll = true
	f.liteWait = 8 * time.Second
	if err := f.spawnSentinels(); err != nil {
		return err
	}
	f.spawnLites(0)
	if err := f.waitAllSynced(joinDeadline); err != nil {
		return err
	}
	ag := f.agent()
	for r := 0; r < f.cfg.Rounds; r++ {
		// Everyone must be parked before the bump, or the wake isn't a
		// herd wake.
		limit := time.Now().Add(roundDeadline)
		for ag.ParkedPolls() < len(f.lites) {
			if time.Now().After(limit) {
				return fmt.Errorf("herd round %d: only %d/%d polls parked", r, ag.ParkedPolls(), len(f.lites))
			}
			time.Sleep(2 * time.Millisecond)
		}
		fan0, builds0 := ag.WakeFanouts(), ag.ContentBuilds()
		name := fmt.Sprintf("herd-%d", r)
		if err := f.measuredRound(name, func() error { return f.hostMutate(name) }, roundDeadline); err != nil {
			return err
		}
		if d := ag.WakeFanouts() - fan0; d != 1 {
			f.violate("herd round %d: %d parked polls woke in %d fan-out rounds, want 1", r, len(f.lites), d)
		}
		if d := ag.ContentBuilds() - builds0; d > 2 {
			f.violate("herd round %d: mass wake cost %d content builds, want <= 2 (single-flight regressed)", r, d)
		}
	}
	if err := f.converge(convergeDeadline); err != nil {
		return err
	}
	f.checkByteBudgets()
	return nil
}

// runChurn cycles disconnect/rejoin waves: each wave force-ejects a random
// slice of the fleet with a retryable close reason, flaps every
// established flow on alternate waves, fires replay-stamped actions from
// random lites, and still requires every round to converge and every
// action to apply exactly once across the rejoins.
func (f *fleet) runChurn() error {
	rng := rand.New(rand.NewSource(f.cfg.Seed*0x51ED2701 + 17))
	if err := f.spawnSentinels(); err != nil {
		return err
	}
	f.spawnLites(0)
	if err := f.waitAllSynced(joinDeadline); err != nil {
		return err
	}
	reasons := []core.CloseReason{core.CloseOvercommitted, core.CloseStaleReader}
	for wave := 0; wave < f.cfg.Rounds; wave++ {
		// Eject ~15% of the fleet with a retryable reason; their parked
		// polls complete with the close and the lites rejoin.
		ag := f.agent()
		churned := 0
		for _, l := range f.lites {
			if rng.Float64() < 0.15 {
				if pid := l.c.ParticipantID(); pid != "" {
					ag.DisconnectWith(pid, reasons[wave%len(reasons)])
					churned++
				}
			}
		}
		if wave%2 == 1 {
			// Flap: reset every established flow to the agent, lites and
			// sentinels alike.
			f.net.ResetConns(f.addr())
		}
		for i := 0; i < 16; i++ {
			f.fireToken(f.lites[rng.Intn(len(f.lites))])
		}
		name := fmt.Sprintf("churn-%d", wave)
		if err := f.measuredRound(name, func() error { return f.hostMutate(name) }, roundDeadline); err != nil {
			return fmt.Errorf("%w (wave ejected %d)", err, churned)
		}
	}
	if err := f.converge(convergeDeadline); err != nil {
		return err
	}
	f.checkByteBudgets()
	return nil
}

// runLongHaul holds the session open over the seeded lossy/mobile link for
// many paced rounds with background interaction — the long-lived-session
// shape where resets, retries, and delta recovery all have to keep
// netting out to convergence. The whole lite fleet is delta-capable and
// every round lands a short burst of three host edits 20 ms apart, each
// waking the fleet on its own, so the round produces several builds and
// the slow tail acks bases more than one build old: exactly the population
// the multi-version delta ring has to keep on the delta path instead of
// the full-snapshot path.
func (f *fleet) runLongHaul() error {
	rng := rand.New(rand.NewSource(f.cfg.Seed*0x2545F491 + 5))
	f.allDelta = true
	// Measured ~3 KB/lite/round with the ring vs ~9-10 KB when only the
	// immediately-previous base is retained: a budget below the
	// single-base cost turns a delta-ring regression into a violation.
	f.roundBudget = 8 << 10
	if err := f.spawnSentinels(); err != nil {
		return err
	}
	f.spawnLites(500 * time.Millisecond)
	if err := f.waitAllSynced(joinDeadline); err != nil {
		return err
	}
	for r := 0; r < f.cfg.Rounds; r++ {
		for i := 0; i < 8; i++ {
			f.fireToken(f.lites[rng.Intn(len(f.lites))])
		}
		name := fmt.Sprintf("haul-%d", r)
		err := f.measuredRound(name, func() error {
			for b := 0; b < 3; b++ {
				if b > 0 {
					time.Sleep(20 * time.Millisecond)
				}
				if err := f.hostMutate(fmt.Sprintf("%s-%d", name, b)); err != nil {
					return err
				}
			}
			return nil
		}, roundDeadline)
		if err != nil {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := f.converge(convergeDeadline); err != nil {
		return err
	}
	f.checkByteBudgets()
	return nil
}

// runSearchRoles is role-asymmetric search co-browsing: one sentinel is
// the driver typing into the shared search box (its forminput IS the
// measured mutation), the lite fleet reads along, and the driver role
// rotates between sentinels every couple of rounds.
func (f *fleet) runSearchRoles() error {
	if f.cfg.Sentinels < 2 {
		f.cfg.Sentinels = 2
	}
	if err := f.spawnSentinels(); err != nil {
		return err
	}
	f.spawnLites(0)
	if err := f.waitAllSynced(joinDeadline); err != nil {
		return err
	}
	for r := 0; r < f.cfg.Rounds; r++ {
		driver := f.sentinels[(r/2)%len(f.sentinels)]
		token := fmt.Sprintf("q-%s-%d-%d", f.cfg.Profile.Name, driver.idx, r)
		name := fmt.Sprintf("search-%d", r)
		err := f.measuredRound(name, func() error {
			return f.fireSentinelInput(driver, token)
		}, roundDeadline)
		if err != nil {
			return err
		}
	}
	if err := f.converge(convergeDeadline); err != nil {
		return err
	}
	f.checkByteBudgets()
	return nil
}

// runWriterTurns rotates form-input turns between several writer
// sentinels, then hands the whole session over to a standby agent midway
// and keeps taking turns — the fleet must follow the MOVED relocation and
// every action must still apply exactly once across the move.
func (f *fleet) runWriterTurns() error {
	if f.cfg.Sentinels < 2 {
		f.cfg.Sentinels = 2
	}
	if err := f.spawnSentinels(); err != nil {
		return err
	}
	f.spawnLites(0)
	if err := f.waitAllSynced(joinDeadline); err != nil {
		return err
	}
	var err error
	f.standby, err = f.startAgent("host2.lan", handoverAddr)
	if err != nil {
		return fmt.Errorf("standby agent: %w", err)
	}
	f.standby.agent.AllowHandover = true
	handoverAfter := f.cfg.Rounds / 2
	for r := 0; r < f.cfg.Rounds; r++ {
		if r == handoverAfter {
			if err := f.handover(); err != nil {
				return err
			}
		}
		writer := f.sentinels[r%len(f.sentinels)]
		token := fmt.Sprintf("w-%s-%d-%d", f.cfg.Profile.Name, writer.idx, r)
		name := fmt.Sprintf("turn-%d", r)
		err := f.measuredRound(name, func() error {
			return f.fireSentinelInput(writer, token)
		}, roundDeadline)
		if err != nil {
			return err
		}
	}
	if got := f.agent().ParticipantCount(); got < f.cfg.N || got > f.cfg.N+f.cfg.Sentinels {
		f.violate("post-handover agent holds %d participants, want %d..%d", got, f.cfg.N, f.cfg.N+f.cfg.Sentinels)
	}
	if err := f.converge(convergeDeadline); err != nil {
		return err
	}
	f.checkByteBudgets()
	return nil
}

// handover moves the live session from the current agent to the standby:
// relocation fence, state transfer, completion — from the fence on, every
// request and parked poll at the old address answers MOVED with a relocate
// hint the fleet follows.
func (f *fleet) handover() error {
	from := f.cur.Load()
	client := httpwire.NewClient(f.net.Dialer(from.hostName))
	defer client.Close()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = from.agent.HandoverTo(client, f.standby.addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("handover: %w", err)
	}
	f.cur.Store(f.standby)
	return nil
}
