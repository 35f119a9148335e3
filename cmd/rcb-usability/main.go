// Command rcb-usability reruns the paper's usability study artifacts: the
// 20-task scenario of Table 2 executed against the real RCB stack, the
// questionnaire instrument of Table 3, and the response statistics of
// Table 4 (computed over simulated responses whose merged distribution
// equals the published one — see the README, "Reproduction method and
// recorded deviations").
//
// Usage:
//
//	rcb-usability            # all three tables
//	rcb-usability -table 2   # one table
//	rcb-usability -seed 7    # different subject simulation seed
package main

import (
	"flag"
	"fmt"
	"os"

	"rcb/internal/usability"
)

func main() {
	table := flag.Int("table", 0, "print only table 2, 3 or 4")
	seed := flag.Int64("seed", 2009, "seed for the simulated questionnaire responses")
	flag.Parse()

	if *table == 0 || *table == 2 {
		scenario, err := usability.NewScenario()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcb-usability:", err)
			os.Exit(1)
		}
		results := scenario.Run()
		scenario.Close()
		usability.WriteTable2(os.Stdout, results)
		fmt.Println()
		times := usability.SessionMinutes(*seed)
		mean := 0.0
		for _, v := range times {
			mean += v
		}
		fmt.Printf("mean session time across 10 simulated pairs: %.1f minutes (paper: 10.8)\n\n", mean/float64(len(times)))
	}
	if *table == 0 || *table == 3 {
		usability.WriteTable3(os.Stdout)
		fmt.Println()
	}
	if *table == 0 || *table == 4 {
		stats := usability.Summarize(usability.SimulateResponses(*seed))
		usability.WriteTable4(os.Stdout, stats)
	}
}
