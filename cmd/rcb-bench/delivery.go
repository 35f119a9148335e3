package main

// The -delivery mode runs the delivery ablation at the paper's 1-second
// interval — the staleness floor PR 2 left as the dominant latency — and
// writes a JSON snapshot (BENCH_delivery.json) demonstrating the long-poll
// channel delivering host changes in transfer time instead of interval/2,
// with idle traffic dropping to one request per hang. The snapshot also
// carries the upstream (action → mirror apply) staleness column: an
// interval-mode sender's actions wait for its next request cycle, while a
// long-poll sender pipelines each action behind its parked poll, as a poll
// that takes the park over, and a duplex sender frames it, both delivering
// in transfer time.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rcb/internal/core"
	"rcb/internal/experiment"
	"rcb/internal/sites"
)

// DeliverySnapshot is the BENCH_delivery.json document.
type DeliverySnapshot struct {
	Benchmark  string                       `json:"benchmark"`
	Site       string                       `json:"site"`
	GoVersion  string                       `json:"go_version"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Results    []*experiment.DeliveryResult `json:"results"`
}

func writeDelivery(site, outPath string) error {
	spec, ok := sites.SiteByName(site)
	if !ok {
		return fmt.Errorf("unknown site %q", site)
	}
	snap := DeliverySnapshot{
		Benchmark:  "DeliveryStaleness",
		Site:       site,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// The paper's interval (1s) against a long-poll hang comfortably past
	// the change gap, so every change lands on a parked request. The
	// downstream options of the first two runs match the PR 3 baseline, so
	// those columns stay comparable. A long-poll participant's actions go
	// out at once, pipelined behind its parked poll, so its action column
	// sits at transfer time like the channel's.
	runs := []struct {
		mode core.DeliveryMode
		opt  experiment.DeliveryOptions
	}{
		{core.DeliveryInterval, experiment.DeliveryOptions{
			Interval: time.Second, Changes: 5, Gap: 100 * time.Millisecond, Idle: 2 * time.Second,
			Actions: 3}},
		{core.DeliveryLongPoll, experiment.DeliveryOptions{
			Interval: time.Second, Wait: 10 * time.Second, Changes: 5, Gap: 100 * time.Millisecond, Idle: 2 * time.Second,
			Actions: 5}},
		// The persistent channel: downstream and upstream ride one framed
		// socket, so both staleness columns sit at transfer time and the idle
		// window issues zero polling requests.
		{core.DeliveryDuplex, experiment.DeliveryOptions{
			Interval: time.Second, Changes: 5, Gap: 100 * time.Millisecond, Idle: 2 * time.Second,
			Actions: 5}},
	}
	for _, run := range runs {
		res, err := experiment.MeasureDelivery(spec, run.mode, run.opt)
		if err != nil {
			return err
		}
		snap.Results = append(snap.Results, res)
		fmt.Fprintf(os.Stderr, "rcb-bench: delivery/%s\tmean staleness %v\tmax %v\tmean action staleness %v\tpolls %d\tidle polls %d/%v\tidle bytes %d\n",
			res.Mode, res.MeanStaleness.Round(time.Microsecond), res.MaxStaleness.Round(time.Microsecond),
			res.MeanActionStaleness.Round(time.Microsecond), res.Polls, res.IdlePolls, res.IdleWindow, res.IdleBytes)
	}
	var w io.Writer = os.Stdout
	var f *os.File
	if outPath != "" {
		var err error
		if f, err = os.Create(outPath); err != nil {
			return err
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err := enc.Encode(snap)
	if f != nil {
		// A flush failure at Close would leave a truncated snapshot that
		// future PRs silently compare against; surface it.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
