package usability

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
)

// Likert scores (paper §5.2.3: five-point Likert scale).
const (
	StronglyDisagree = 1
	Disagree         = 2
	Neither          = 3
	Agree            = 4
	StronglyAgree    = 5
)

// Question is one item of the Table 3 instrument.
type Question struct {
	ID       string // "Q1-P", "Q1-N", ...
	Pair     int    // 1..8: which P/N pair it belongs to
	Positive bool
	Group    string
	Text     string
}

// Questions is the 16-question instrument of Table 3: eight positive Likert
// questions and eight correspondingly inverted negative ones, in four
// groups.
var Questions = []Question{
	{"Q1-P", 1, true, "Perceived Usefulness", "It is helpful to use RCB to coordinate a meeting spot via Google Maps."},
	{"Q1-N", 1, false, "Perceived Usefulness", "It is useless to use RCB to coordinate a meeting spot via Google Maps."},
	{"Q2-P", 2, true, "Perceived Usefulness", "It is helpful to use RCB to perform online co-shopping at Amazon.com."},
	{"Q2-N", 2, false, "Perceived Usefulness", "It is useless to use RCB to perform online co-shopping at Amazon.com."},
	{"Q3-P", 3, true, "Ease-of-use as a co-browsing host", "It is easy to use RCB to host the Google Maps scenario."},
	{"Q3-N", 3, false, "Ease-of-use as a co-browsing host", "It is hard to use RCB to host the Google Maps scenario."},
	{"Q4-P", 4, true, "Ease-of-use as a co-browsing host", "It is easy to use RCB to host the online co-shopping scenario."},
	{"Q4-N", 4, false, "Ease-of-use as a co-browsing host", "It is hard to use RCB to host the online co-shopping scenario."},
	{"Q5-P", 5, true, "Ease-of-use as a co-browsing participant", "It is easy to participate in the RCB Google Maps scenario."},
	{"Q5-N", 5, false, "Ease-of-use as a co-browsing participant", "It is hard to participate in the RCB Google Maps scenario."},
	{"Q6-P", 6, true, "Ease-of-use as a co-browsing participant", "It is easy to participate in the RCB online co-shopping scenario."},
	{"Q6-N", 6, false, "Ease-of-use as a co-browsing participant", "It is hard to participate in the RCB online co-shopping scenario."},
	{"Q7-P", 7, true, "Potential Usage", "It would be helpful to use RCB on other co-browsing activities."},
	{"Q7-N", 7, false, "Potential Usage", "It wouldn't be helpful to use RCB on other co-browsing activities."},
	{"Q8-P", 8, true, "Potential Usage", "I would like to use RCB in the future."},
	{"Q8-N", 8, false, "Potential Usage", "I wouldn't like to use RCB in the future."},
}

// publishedDistribution is Table 4 of the paper: for each merged question
// pair, the percentage of the 40 responses (20 subjects × P and inverted N)
// falling on each score. All percentages are multiples of 2.5 (= 1/40), so
// exact response counts are recoverable.
var publishedDistribution = [8][5]float64{
	{0.0, 0.0, 7.5, 52.5, 40.0},  // Q1
	{0.0, 0.0, 7.5, 52.5, 40.0},  // Q2
	{5.0, 0.0, 5.0, 50.0, 40.0},  // Q3
	{0.0, 2.5, 7.5, 62.5, 27.5},  // Q4
	{0.0, 2.5, 0.0, 62.5, 35.0},  // Q5
	{0.0, 5.0, 2.5, 57.5, 35.0},  // Q6
	{0.0, 2.5, 5.0, 55.0, 37.5},  // Q7
	{0.0, 0.0, 15.0, 55.0, 30.0}, // Q8
}

// Response is one subject's answer to one question, on the raw (uninverted)
// scale as the subject gave it.
type Response struct {
	Subject  int // 1..20
	Question Question
	Score    int
}

// SimulateResponses generates a full response set for the 20 subjects whose
// merged per-pair distribution equals the published Table 4 exactly. The
// paper's human answers are unavailable; this is the closest synthetic
// equivalent (recorded in the README's deviations). The seeded shuffle
// decides only which subject gave which score and whether it landed on the
// P or the N variant — both are marginalized away by the Table 4
// statistics.
func SimulateResponses(seed int64) []Response {
	r := rand.New(rand.NewSource(seed))
	var out []Response
	for pair := 1; pair <= 8; pair++ {
		// Rebuild the exact multiset of 40 merged scores.
		var merged []int
		for score := 1; score <= 5; score++ {
			count := int(publishedDistribution[pair-1][score-1]*40/100 + 0.5)
			for i := 0; i < count; i++ {
				merged = append(merged, score)
			}
		}
		if len(merged) != 40 {
			panic(fmt.Sprintf("usability: pair %d rebuilt %d responses, want 40", pair, len(merged)))
		}
		r.Shuffle(len(merged), func(i, j int) { merged[i], merged[j] = merged[j], merged[i] })
		// First 20 go to the positive question as-is; the rest to the
		// negative question inverted about the neutral mark (a subject who
		// "agrees" on the merged scale answers "disagree" to the negative
		// phrasing).
		pq, nq := Questions[(pair-1)*2], Questions[(pair-1)*2+1]
		for s := 0; s < 20; s++ {
			out = append(out, Response{Subject: s + 1, Question: pq, Score: merged[s]})
			out = append(out, Response{Subject: s + 1, Question: nq, Score: 6 - merged[20+s]})
		}
	}
	return out
}

// PairStats is one merged row of Table 4.
type PairStats struct {
	Pair        int
	Percent     [5]float64 // share of responses per score, ascending
	Median      int
	Mode        int
	ResponseCnt int
}

// Summarize computes Table 4 from raw responses: negative-question scores
// are inverted about the neutral mark and merged with their positive
// counterparts, then percentages, median, and mode are taken (paper
// §5.2.3 and the Table 4 caption).
func Summarize(responses []Response) []PairStats {
	byPair := make(map[int][]int)
	for _, resp := range responses {
		score := resp.Score
		if !resp.Question.Positive {
			score = 6 - score // invert about the neutral mark
		}
		byPair[resp.Question.Pair] = append(byPair[resp.Question.Pair], score)
	}
	pairs := make([]int, 0, len(byPair))
	for p := range byPair {
		pairs = append(pairs, p)
	}
	sort.Ints(pairs)
	out := make([]PairStats, 0, len(pairs))
	for _, p := range pairs {
		scores := byPair[p]
		sort.Ints(scores)
		st := PairStats{Pair: p, ResponseCnt: len(scores)}
		counts := [5]int{}
		for _, s := range scores {
			counts[s-1]++
		}
		for i, c := range counts {
			st.Percent[i] = 100 * float64(c) / float64(len(scores))
		}
		st.Median = scores[(len(scores)-1)/2] // lower median for ordinal data
		best := 0
		for i, c := range counts {
			if c > best {
				best = c
				st.Mode = i + 1
			}
		}
		out = append(out, st)
	}
	return out
}

// WriteTable3 renders the instrument.
func WriteTable3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: the 16 close-ended questions in four groups")
	group := ""
	for _, q := range Questions {
		if q.Group != group {
			group = q.Group
			fmt.Fprintf(w, "\n%s\n", group)
		}
		fmt.Fprintf(w, "  %s: %s\n", q.ID, q.Text)
	}
	fmt.Fprintln(w, "\n(Questions were presented in random order; subjects were not aware of the groupings.)")
}

// WriteTable4 renders the summary statistics.
func WriteTable4(w io.Writer, stats []PairStats) {
	fmt.Fprintln(w, "Table 4: summary of the responses to the 16 close-ended questions")
	fmt.Fprintf(w, "%-5s %9s %9s %13s %7s %9s %9s %9s\n",
		"", "Strongly", "Disagree", "Neither", "Agree", "Strongly", "Median", "Mode")
	fmt.Fprintf(w, "%-5s %9s %9s %13s %7s %9s %9s %9s\n",
		"", "disagree", "", "agree nor dis", "", "Agree", "", "")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	for _, st := range stats {
		fmt.Fprintf(w, "Q%-4d %8.1f%% %8.1f%% %12.1f%% %6.1f%% %8.1f%% %9s %9s\n",
			st.Pair,
			st.Percent[0], st.Percent[1], st.Percent[2], st.Percent[3], st.Percent[4],
			shortScore(st.Median), shortScore(st.Mode))
	}
}

func shortScore(s int) string {
	switch s {
	case Agree:
		return "Agree"
	case StronglyAgree:
		return "S.Agree"
	case Neither:
		return "Neither"
	case Disagree:
		return "Disagree"
	case StronglyDisagree:
		return "S.Disagr"
	}
	return "?"
}

// SessionMinutes reports the simulated per-pair completion times, whose
// mean matches the paper's 10.8 minutes.
func SessionMinutes(seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	const pairs = 10
	const mean = 10.8
	out := make([]float64, pairs)
	sum := 0.0
	for i := 0; i < pairs-1; i++ {
		v := mean + (r.Float64()-0.5)*4 // ±2 minutes of spread
		out[i] = v
		sum += v
	}
	out[pairs-1] = mean*pairs - sum // pin the mean exactly
	return out
}
