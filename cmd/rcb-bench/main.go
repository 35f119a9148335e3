// Command rcb-bench regenerates the paper's evaluation artifacts: Figures
// 6, 7 and 8, Table 1, the shape-check summary, and the ablation suite.
//
// Usage:
//
//	rcb-bench -all                 # everything
//	rcb-bench -figure 6            # one figure (6, 7 or 8)
//	rcb-bench -table 1             # Table 1
//	rcb-bench -shapes              # paper-claim shape checks; exits 1 if one fails
//	rcb-bench -ablation -site cnn.com
//	rcb-bench -fanout -out BENCH_fanout.json       # agent serve-path scaling snapshot
//	rcb-bench -delivery -out BENCH_delivery.json   # interval vs long-poll staleness snapshot
//	rcb-bench -delta -out BENCH_delta.json         # delta vs full apply-path snapshot
//	rcb-bench -scale -out BENCH_scale.json         # scenario-lab scale snapshot (SCENLAB_N sizes it)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rcb/internal/experiment"
)

func main() {
	figure := flag.Int("figure", 0, "regenerate figure 6, 7 or 8")
	table := flag.Int("table", 0, "regenerate table 1")
	shapes := flag.Bool("shapes", false, "run the paper-claim shape checks")
	ablation := flag.Bool("ablation", false, "run the ablation suite")
	mobile := flag.Bool("mobile", false, "run the Fennec/N810 mobile experiment (paper §6)")
	fanout := flag.Bool("fanout", false, "benchmark the agent serve path at 16/64/256 participants")
	delivery := flag.Bool("delivery", false, "measure interval-poll vs long-poll staleness and request counts")
	delta := flag.Bool("delta", false, "benchmark the delta vs full apply path for a small edit")
	scale := flag.Bool("scale", false, "run the scenario-lab scale matrix (SCENLAB_N participants per family)")
	out := flag.String("out", "", "write fanout/delivery/delta results as JSON to this file (default stdout; -all defaults to BENCH_fanout.json)")
	all := flag.Bool("all", false, "regenerate everything")
	site := flag.String("site", "google.com", "site for -ablation and -fanout")
	reps := flag.Int("reps", 3, "repetitions for M5/M6 measurements")
	flag.Parse()

	if *fanout {
		if err := writeFanout(*site, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *delivery {
		if err := writeDelivery(*site, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *delta {
		if err := writeDelta(*site, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *scale {
		if err := writeScale(*out); err != nil {
			fatal(err)
		}
		return
	}
	if *all {
		// -all regenerates every artifact, including the serve-path
		// scaling and delivery-staleness snapshots future perf PRs
		// compare against.
		outPath := *out
		if outPath == "" {
			outPath = "BENCH_fanout.json"
		}
		defer func() {
			if err := writeFanout(*site, outPath); err != nil {
				fatal(err)
			}
			if err := writeDelivery(*site, "BENCH_delivery.json"); err != nil {
				fatal(err)
			}
			// Pinned to msn.com: the checked-in BENCH_delta.json baseline
			// (and the Makefile bench target) measure that page, so -all
			// must not silently rewrite it against a different site.
			if err := writeDelta("msn.com", "BENCH_delta.json"); err != nil {
				fatal(err)
			}
		}()
	}
	if !*all && *figure == 0 && *table == 0 && !*shapes && !*ablation && !*mobile {
		flag.Usage()
		os.Exit(2)
	}
	opt := experiment.Options{Reps: *reps}

	var lan, wan []*experiment.SiteResult
	needLAN := *all || *figure == 6 || *figure == 8 || *table == 1 || *shapes
	needWAN := *all || *figure == 7 || *shapes
	var err error
	if needLAN {
		fmt.Fprintln(os.Stderr, "running LAN pipeline over the 20-site corpus...")
		if lan, err = experiment.RunAll(experiment.LAN, opt); err != nil {
			fatal(err)
		}
	}
	if needWAN {
		fmt.Fprintln(os.Stderr, "running WAN pipeline over the 20-site corpus...")
		if wan, err = experiment.RunAll(experiment.WAN, opt); err != nil {
			fatal(err)
		}
	}

	if *all || *figure == 6 {
		experiment.WriteFigure67(os.Stdout, "Figure 6: LAN", lan)
		fmt.Println()
	}
	if *all || *figure == 7 {
		experiment.WriteFigure67(os.Stdout, "Figure 7: WAN", wan)
		fmt.Println()
	}
	if *all || *figure == 8 {
		experiment.WriteFigure8(os.Stdout, "LAN", lan)
		fmt.Println()
	}
	if *all || *table == 1 {
		experiment.WriteTable1(os.Stdout, lan)
		fmt.Println()
	}
	shapesPass := true
	if *all || *shapes {
		fmt.Println("Shape checks (paper claims vs this reproduction):")
		lines := experiment.ShapeChecks(lan, wan)
		for _, line := range lines {
			fmt.Println("  " + line)
		}
		fmt.Println()
		shapesPass = experiment.AllPass(lines)
	}
	if *all || *ablation {
		if err := experiment.WriteAblations(os.Stdout, *site, experiment.LAN); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *all || *mobile {
		names := []string{"google.com", "msn.com", "yahoo.com", "amazon.com"}
		if err := experiment.WriteMobile(os.Stdout, names, experiment.N810, opt); err != nil {
			fatal(err)
		}
	}
	if !shapesPass {
		fatal(errors.New("a paper-claim shape check failed"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcb-bench:", err)
	os.Exit(1)
}
