package main

// The -scale mode runs the internal/scenlab scenario families at
// four-digit fleet size — flash-crowd joins, thundering-herd wakes,
// disconnect/rejoin churn, long-haul lossy links, role-asymmetric search
// co-browsing, and multi-writer turns across a live handover — and writes
// a JSON snapshot (BENCH_scale.json) of the measured staleness and
// bytes-per-participant numbers, so successive PRs can compare scheduler
// and wire-cost changes against a recorded baseline. Each row runs once
// per seed in scaleSeeds: a single run's staleness spreads wider than the
// changes it would show, so the snapshot records the median and the
// min–max of mean and max staleness next to every run. SCENLAB_N overrides
// the fleet size, the same knob the test harness uses.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"rcb/internal/scenlab"
)

// ScaleSnapshot is the BENCH_scale.json document.
type ScaleSnapshot struct {
	Benchmark  string      `json:"benchmark"`
	N          int         `json:"n"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seeds      []int64     `json:"seeds"`
	Rows       []*ScaleRow `json:"rows"`
}

// ScaleRow is one (family × profile) row: its staleness spread across the
// seeds, and each seed's full result.
type ScaleRow struct {
	Family          string            `json:"family"`
	Profile         string            `json:"profile"`
	MeanStalenessMS Spread            `json:"mean_staleness_ms"`
	MaxStalenessMS  Spread            `json:"max_staleness_ms"`
	Runs            []*scenlab.Result `json:"runs"`
}

// Spread summarizes one figure across runs.
type Spread struct {
	Median int64 `json:"median"`
	Min    int64 `json:"min"`
	Max    int64 `json:"max"`
}

// spreadOf returns the median (the lower middle for an even count), min
// and max of vs, which must not be empty.
func spreadOf(vs []int64) Spread {
	s := slices.Sorted(slices.Values(vs))
	return Spread{Median: s[(len(s)-1)/2], Min: s[0], Max: s[len(s)-1]}
}

// scaleSeeds are the seeds every row runs on.
var scaleSeeds = []int64{1, 2, 3}

// scaleRuns is the (family × profile) matrix the snapshot records — each
// family over the profile(s) that stress it.
var scaleRuns = []struct {
	family  string
	profile scenlab.Profile
	rounds  int
}{
	{scenlab.FamilyFlashCrowd, scenlab.ProfileInstant, 3},
	{scenlab.FamilyFlashCrowd, scenlab.ProfileWAN, 3},
	{scenlab.FamilyThunderingHerd, scenlab.ProfileInstant, 3},
	{scenlab.FamilyChurn, scenlab.ProfileLossy, 4},
	{scenlab.FamilyLongHaul, scenlab.ProfileLossy, 5},
	{scenlab.FamilyLongHaul, scenlab.ProfileMobile, 5},
	{scenlab.FamilySearchRoles, scenlab.ProfileWAN, 4},
	{scenlab.FamilyWriterTurns, scenlab.ProfileInstant, 4},
}

func writeScale(outPath string) error {
	n := scenlab.EnvN(1000)
	snap := ScaleSnapshot{
		Benchmark:  "ScenarioLabScale",
		N:          n,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seeds:      scaleSeeds,
	}
	failed := 0
	for _, run := range scaleRuns {
		row := &ScaleRow{Family: run.family, Profile: run.profile.Name}
		var means, maxes []int64
		for _, seed := range scaleSeeds {
			fmt.Fprintf(os.Stderr, "rcb-bench: scale %s/%s n=%d seed=%d...\n", run.family, run.profile.Name, n, seed)
			res, err := scenlab.Run(scenlab.Config{
				Family:    run.family,
				Profile:   run.profile,
				N:         n,
				Sentinels: 4,
				Rounds:    run.rounds,
				Seed:      seed,
			})
			if err != nil {
				return fmt.Errorf("scale %s/%s seed %d: %w", run.family, run.profile.Name, seed, err)
			}
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "rcb-bench: scale %s/%s seed %d: VIOLATION: %s\n", run.family, run.profile.Name, seed, v)
				failed++
			}
			fmt.Fprintf(os.Stderr, "rcb-bench: scale %s/%s seed %d\tmean %dms\tmax %dms\tjoin %dB/lite\tround %dB/lite\t%.1fs\n",
				run.family, run.profile.Name, seed, res.MeanStalenessMS, res.MaxStalenessMS,
				res.JoinBytesPerLite, res.RoundBytesPerLite, float64(res.TotalWallMS)/1000)
			row.Runs = append(row.Runs, res)
			means = append(means, res.MeanStalenessMS)
			maxes = append(maxes, res.MaxStalenessMS)
		}
		row.MeanStalenessMS, row.MaxStalenessMS = spreadOf(means), spreadOf(maxes)
		snap.Rows = append(snap.Rows, row)
	}
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("scale: %d violations across the matrix", failed)
	}
	return nil
}
