package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// secs renders a duration the way the paper's tables do (seconds, 3
// decimals).
func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// WriteFigure67 renders the M1-vs-M2 comparison of Figure 6 (LAN) or
// Figure 7 (WAN): per-site document load time against synchronization time,
// with the paper's headline ratio.
func WriteFigure67(w io.Writer, env string, results []*SiteResult) {
	fmt.Fprintf(w, "Figure (%s): HTML document load time — M1 (direct load) vs M2 (RCB sync)\n", env)
	fmt.Fprintf(w, "%-3s %-15s %10s %10s %8s\n", "#", "site", "M1 (s)", "M2 (s)", "M2<M1")
	fmt.Fprintln(w, strings.Repeat("-", 52))
	wins := 0
	for _, r := range results {
		faster := r.M2 < r.M1
		if faster {
			wins++
		}
		fmt.Fprintf(w, "%-3d %-15s %10s %10s %8v\n",
			r.Spec.Index, r.Spec.Name, secs(r.M1), secs(r.M2), faster)
	}
	fmt.Fprintf(w, "M2 faster than M1 on %d/%d sites\n", wins, len(results))
}

// WriteFigure8 renders the cache-mode object download comparison of
// Figure 8: M3 (from origin) vs M4 (from host cache).
func WriteFigure8(w io.Writer, env string, results []*SiteResult) {
	fmt.Fprintf(w, "Figure 8 (%s): supplementary object download — M3 (origin) vs M4 (host cache)\n", env)
	fmt.Fprintf(w, "%-3s %-15s %10s %10s %8s\n", "#", "site", "M3 (s)", "M4 (s)", "M4<M3")
	fmt.Fprintln(w, strings.Repeat("-", 52))
	wins := 0
	for _, r := range results {
		faster := r.M4 < r.M3
		if faster {
			wins++
		}
		fmt.Fprintf(w, "%-3d %-15s %10s %10s %8v\n",
			r.Spec.Index, r.Spec.Name, secs(r.M3), secs(r.M4), faster)
	}
	fmt.Fprintf(w, "cache mode faster on %d/%d sites\n", wins, len(results))
}

// WriteTable1 renders Table 1: page size and the processing metrics. The
// paper printed seconds; 2009 JavaScript took 15–700 ms where this Go
// implementation takes tens of microseconds to milliseconds, so the unit
// here is milliseconds.
func WriteTable1(w io.Writer, results []*SiteResult) {
	fmt.Fprintln(w, "Table 1: homepage size and processing time of 20 sites")
	fmt.Fprintf(w, "%-3s %-15s %10s %17s %13s %10s\n",
		"#", "site", "size (KB)", "M5 non-cache (ms)", "M5 cache (ms)", "M6 (ms)")
	fmt.Fprintln(w, strings.Repeat("-", 74))
	for _, r := range results {
		fmt.Fprintf(w, "%-3d %-15s %10.1f %17.3f %13.3f %10.3f\n",
			r.Spec.Index, r.Spec.Name, r.Spec.PageKB,
			ms(r.M5NonCache), ms(r.M5Cache), ms(r.M6))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ShapeChecks verifies the paper's ordering claims against a result set and
// returns human-readable pass/fail lines. It powers `rcb-bench -shapes`,
// which exits non-zero on a failure, and the regression tests: the
// reproduction is considered faithful when every check passes.
func ShapeChecks(lan, wan []*SiteResult) []string {
	var out []string
	check := func(name string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		out = append(out, fmt.Sprintf("[%s] %s", status, name))
	}

	// Figure 6: in the LAN, M2 < M1 on every site and M2 < 0.4 s.
	lanAll := true
	lanBound := true
	for _, r := range lan {
		if r.M2 >= r.M1 {
			lanAll = false
		}
		if r.M2 >= 400*time.Millisecond {
			lanBound = false
		}
	}
	check("LAN: M2 < M1 for all 20 sites (Figure 6)", lanAll)
	check("LAN: M2 < 0.4s for all 20 sites (Figure 6)", lanBound)

	// Figure 7: in the WAN, M2 < M1 for most (paper: 17/20) sites.
	wanWins := 0
	for _, r := range wan {
		if r.M2 < r.M1 {
			wanWins++
		}
	}
	check(fmt.Sprintf("WAN: M2 < M1 for most sites (got %d/20, paper 17/20)", wanWins),
		wanWins >= 14 && wanWins < 20)

	// Figure 8: cache mode wins on every site in the LAN.
	cacheAll := true
	for _, r := range lan {
		if r.M4 >= r.M3 {
			cacheAll = false
		}
	}
	check("LAN: M4 < M3 for all 20 sites (Figure 8)", cacheAll)

	// Table 1: M5 grows with page size (largest page slowest), M6 bounded
	// by a third of a second. The paper's third Table 1 observation —
	// "M5 cache > M5 non-cache" — was caused by Mozilla's cache service
	// lookup cost, which this substrate's map-based cache does not
	// reproduce (a deviation the README records); the honest
	// transferable claim is that the two modes cost about the same here.
	var largest, smallest *SiteResult
	m6Bounded := true
	var m5NC, m5C time.Duration
	for _, r := range lan {
		if largest == nil || r.Spec.PageKB > largest.Spec.PageKB {
			largest = r
		}
		if smallest == nil || r.Spec.PageKB < smallest.Spec.PageKB {
			smallest = r
		}
		m5NC += r.M5NonCache
		m5C += r.M5Cache
		if r.M6 >= time.Second/3 {
			m6Bounded = false
		}
	}
	check("Table 1: M5 larger for largest page than smallest",
		largest.M5NonCache > smallest.M5NonCache)
	ratio := float64(m5C) / float64(m5NC)
	check(fmt.Sprintf("Table 1 (deviation, see README): M5 cache ~= M5 non-cache on this substrate (ratio %.2f)", ratio),
		ratio > 0.5 && ratio < 2.0)
	check("Table 1: M6 < 1/3 s for all sites", m6Bounded)
	return out
}

// AllPass reports whether every shape check line passed.
func AllPass(lines []string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, "[FAIL]") {
			return false
		}
	}
	return true
}
