package usability

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// ScoreName renders a Likert score.
func ScoreName(s int) string {
	switch s {
	case StronglyDisagree:
		return "Strongly disagree"
	case Disagree:
		return "Disagree"
	case Neither:
		return "Neither agree nor disagree"
	case Agree:
		return "Agree"
	case StronglyAgree:
		return "Strongly Agree"
	}
	return fmt.Sprintf("score(%d)", s)
}

func TestScenarioAllTasksComplete(t *testing.T) {
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	results := s.Run()
	if len(results) != 20 {
		t.Fatalf("ran %d tasks, want 20", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s (%s): %v", r.ID, r.Role, r.Err)
		}
	}
	done, total := CompletionRatio(results)
	if done != total {
		t.Fatalf("completion %d/%d; the study reports 100%%", done, total)
	}
}

func TestScenarioTaskIDsMatchTable2(t *testing.T) {
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	results := s.Run()
	for i, r := range results {
		wantRole := "Bob"
		if i%2 == 1 {
			wantRole = "Alice"
		}
		if r.Role != wantRole {
			t.Errorf("task %s role = %s, want %s", r.ID, r.Role, wantRole)
		}
	}
	if results[0].ID != "T1-B" || results[19].ID != "T10-A" {
		t.Errorf("task ordering wrong: %s ... %s", results[0].ID, results[19].ID)
	}
}

func TestWriteTable2(t *testing.T) {
	s, err := NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b strings.Builder
	WriteTable2(&b, s.Run())
	out := b.String()
	if !strings.Contains(out, "T5-B") || !strings.Contains(out, "completed 20/20") {
		t.Errorf("table 2 output:\n%s", out)
	}
}

func TestQuestionnaireStructure(t *testing.T) {
	if len(Questions) != 16 {
		t.Fatalf("have %d questions, want 16", len(Questions))
	}
	groups := map[string]int{}
	for i, q := range Questions {
		groups[q.Group]++
		wantPositive := i%2 == 0
		if q.Positive != wantPositive {
			t.Errorf("%s positive = %v", q.ID, q.Positive)
		}
		if q.Pair != i/2+1 {
			t.Errorf("%s pair = %d", q.ID, q.Pair)
		}
	}
	if len(groups) != 4 {
		t.Fatalf("have %d groups, want 4: %v", len(groups), groups)
	}
	for g, n := range groups {
		if n != 4 {
			t.Errorf("group %q has %d questions, want 4", g, n)
		}
	}
}

func TestSimulatedResponsesMatchPublishedTable4(t *testing.T) {
	responses := SimulateResponses(2009)
	if len(responses) != 20*16 {
		t.Fatalf("have %d responses, want 320", len(responses))
	}
	stats := Summarize(responses)
	if len(stats) != 8 {
		t.Fatalf("have %d pairs, want 8", len(stats))
	}
	for _, st := range stats {
		want := publishedDistribution[st.Pair-1]
		for i := 0; i < 5; i++ {
			if math.Abs(st.Percent[i]-want[i]) > 1e-9 {
				t.Errorf("Q%d score %d: %.1f%%, published %.1f%%", st.Pair, i+1, st.Percent[i], want[i])
			}
		}
		// The paper: "The median and mode responses are positive Agree for
		// all the questions."
		if st.Median != Agree || st.Mode != Agree {
			t.Errorf("Q%d median/mode = %s/%s, want Agree/Agree",
				st.Pair, ScoreName(st.Median), ScoreName(st.Mode))
		}
		if st.ResponseCnt != 40 {
			t.Errorf("Q%d merged %d responses, want 40", st.Pair, st.ResponseCnt)
		}
	}
}

func TestSimulationSeedInvariantProperty(t *testing.T) {
	// Whatever the seed, the merged statistics must equal Table 4: the seed
	// only shuffles which subject said what.
	f := func(seed int64) bool {
		stats := Summarize(SimulateResponses(seed))
		for _, st := range stats {
			want := publishedDistribution[st.Pair-1]
			for i := 0; i < 5; i++ {
				if math.Abs(st.Percent[i]-want[i]) > 1e-9 {
					return false
				}
			}
			if st.Median != Agree || st.Mode != Agree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeQuestionInversion(t *testing.T) {
	// A subject who strongly agrees with the positive phrasing answers the
	// negative phrasing near "strongly disagree"; after inversion both land
	// on the same merged score.
	responses := SimulateResponses(7)
	for _, resp := range responses {
		if resp.Score < 1 || resp.Score > 5 {
			t.Fatalf("out-of-scale score %d", resp.Score)
		}
	}
	// Count raw agreement on negative questions: with a positive instrument
	// result, most negative-question answers must be on the disagree side.
	negAgree, negTotal := 0, 0
	for _, resp := range responses {
		if !resp.Question.Positive {
			negTotal++
			if resp.Score >= Agree {
				negAgree++
			}
		}
	}
	if negAgree > negTotal/4 {
		t.Errorf("%d/%d negative-question answers agree; inversion looks wrong", negAgree, negTotal)
	}
}

func TestWriteTable3And4(t *testing.T) {
	var b strings.Builder
	WriteTable3(&b)
	if !strings.Contains(b.String(), "Q8-N") || !strings.Contains(b.String(), "Perceived Usefulness") {
		t.Errorf("table 3 output:\n%s", b.String())
	}
	b.Reset()
	WriteTable4(&b, Summarize(SimulateResponses(2009)))
	out := b.String()
	if !strings.Contains(out, "52.5%") || !strings.Contains(out, "Agree") {
		t.Errorf("table 4 output:\n%s", out)
	}
}

func TestSessionMinutesMeanPinned(t *testing.T) {
	times := SessionMinutes(42)
	if len(times) != 10 {
		t.Fatalf("want 10 pairs, got %d", len(times))
	}
	sum := 0.0
	for _, v := range times {
		if v <= 5 || v >= 17 {
			t.Errorf("implausible session time %.1f min", v)
		}
		sum += v
	}
	if math.Abs(sum/10-10.8) > 1e-9 {
		t.Errorf("mean = %.3f, want 10.8", sum/10)
	}
}

func TestScoreNames(t *testing.T) {
	want := map[int]string{
		StronglyDisagree: "Strongly disagree",
		Disagree:         "Disagree",
		Neither:          "Neither agree nor disagree",
		Agree:            "Agree",
		StronglyAgree:    "Strongly Agree",
	}
	for score, name := range want {
		if got := ScoreName(score); got != name {
			t.Errorf("ScoreName(%d) = %q, want %q", score, got, name)
		}
	}
	if got := ScoreName(9); !strings.Contains(got, "9") {
		t.Errorf("out-of-scale name = %q", got)
	}
}

func TestWriteTable4AllScoreColumns(t *testing.T) {
	// Force every median/mode rendering branch through a synthetic stat set.
	stats := []PairStats{
		{Pair: 1, Median: StronglyDisagree, Mode: Disagree, ResponseCnt: 1},
		{Pair: 2, Median: Neither, Mode: StronglyAgree, ResponseCnt: 1},
		{Pair: 3, Median: Agree, Mode: Agree, ResponseCnt: 1},
	}
	var b strings.Builder
	WriteTable4(&b, stats)
	out := b.String()
	for _, want := range []string{"S.Disagr", "Disagree", "Neither", "S.Agree", "Agree"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 output missing %q:\n%s", want, out)
		}
	}
}
