package dom

// Go native fuzz targets for the parser and the diff/patch engine. Seed
// corpora live under testdata/fuzz/<Target>/ and are exercised by plain
// `go test`; `make fuzz` runs each target briefly with mutation.

import (
	"math/rand"
	"slices"
	"testing"
)

// fuzzSizeCap bounds inputs so the fuzzer explores structure rather than
// timing out on megabyte text runs.
const fuzzSizeCap = 1 << 16

// FuzzParse checks the parser invariants the rest of the system leans on:
// Parse never panics on arbitrary bytes, and serialization is stable — the
// first Parse may normalize (skeleton fixup, attribute quoting), but from
// then on parse→serialize is a fixed point. The delta protocol's path
// addressing relies on this: a participant tree built by re-parsing a
// serialized host tree must keep re-serializing identically.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"<html><head><title>t</title></head><body><p>hi</p></body></html>",
		"<div class=x>a<b>c",
		"<!DOCTYPE html><html><body>&amp;&#65;&bogus;<br/></body></html>",
		"text only, no markup at all",
		"<script>if (a < b) { run(); }</script>",
		"<ul><li>one<li>two<table><tr><td>x<td>y</table>",
		"< lone bracket <2not-a-tag </> <a href='q&quot;v'>link</a>",
		"<!-- unterminated comment",
		"<frameset><frame src=a.html></frameset><noframes>nope</noframes>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzSizeCap {
			t.Skip()
		}
		h1 := Parse(src).HTML()
		h2 := Parse(h1).HTML()
		h3 := Parse(h2).HTML()
		if h2 != h3 {
			t.Errorf("parse→serialize not stable:\n h2: %q\n h3: %q\nsrc: %q", h2, h3, src)
		}
	})
}

// FuzzDiffApply checks convergence on fuzzed tree pairs: for any two parsed
// documents, applying Diff's script to the first must reproduce the second's
// serialization exactly, and Apply must never reject its own engine's
// output. Along the way every child-list alignment Diff performs must pair
// exactly as the full-table reference does (lcsPairsReference), so the
// prefix shortcut and the shape cache can never change a patch.
func FuzzDiffApply(f *testing.F) {
	seeds := [][2]string{
		{"<html><body><p>a</p></body></html>", "<html><body><p>b</p></body></html>"},
		{"<div id=k1>x</div>", "<p id=k2>y</p><div id=k1>x</div>"},
		{"<ul><li>1<li>2<li>3</ul>", "<ul><li>3<li>1</ul>"},
		{"<script>a<b</script>", "<style>.x{}</style>"},
		{"plain text", "<b>now markup</b> and text"},
		{"<table><tr><td>a</table>", "<table><tr><td>a<td>b</table>"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > fuzzSizeCap || len(b) > fuzzSizeCap {
			t.Skip()
		}
		da, db := Parse(a), Parse(b)
		checkAlignment(t, da.Root, db.Root)
		want := OuterHTML(db.Root)
		patches := Diff(da.Root, db.Root)
		if err := Apply(da.Root, patches); err != nil {
			t.Fatalf("Apply rejected Diff output: %v\na: %q\nb: %q", err, a, b)
		}
		if got := OuterHTML(da.Root); got != want {
			t.Errorf("diff/apply diverged:\n got: %q\nwant: %q\na: %q\nb: %q", got, want, a, b)
		}
	})
}

// checkAlignment walks old and new the way diffNode does and compares each
// lcsPairs result with the reference alignment.
func checkAlignment(t *testing.T, old, new *Node) {
	t.Helper()
	if !shallowCompatible(old, new) || old.Type != ElementNode {
		return
	}
	oc, nc := old.Children, new.Children
	if len(oc)*len(nc) > lcsLimit {
		return
	}
	got, want := lcsPairs(oc, nc), lcsPairsReference(oc, nc)
	if !slices.Equal(got, want) {
		t.Fatalf("lcsPairs under <%s> = %v, reference %v", old.Tag, got, want)
	}
	for _, pr := range got {
		checkAlignment(t, oc[pr[0]], nc[pr[1]])
	}
}

// lcsPairsReference is the full-table alignment lcsPairs must reproduce:
// every cell compares the two children with shallowCompatible, and the
// backtrack starts at (0, 0).
func lcsPairsReference(oc, nc []*Node) [][2]int {
	m, n := len(oc), len(nc)
	if m == 0 || n == 0 {
		return nil
	}
	dp := make([]int, (m+1)*(n+1))
	idx := func(i, j int) int { return i*(n+1) + j }
	for i := m - 1; i >= 0; i-- {
		for j := n - 1; j >= 0; j-- {
			if shallowCompatible(oc[i], nc[j]) {
				dp[idx(i, j)] = dp[idx(i+1, j+1)] + 1
			} else if dp[idx(i+1, j)] >= dp[idx(i, j+1)] {
				dp[idx(i, j)] = dp[idx(i+1, j)]
			} else {
				dp[idx(i, j)] = dp[idx(i, j+1)]
			}
		}
	}
	pairs := make([][2]int, 0, dp[0])
	for i, j := 0, 0; i < m && j < n; {
		switch {
		case shallowCompatible(oc[i], nc[j]) && dp[idx(i, j)] == dp[idx(i+1, j+1)]+1:
			pairs = append(pairs, [2]int{i, j})
			i++
			j++
		case dp[idx(i+1, j)] >= dp[idx(i, j+1)]:
			i++
		default:
			j++
		}
	}
	return pairs
}

// TestLCSPairsMatchReference runs the alignment oracle over the property
// harness's trees: mutated clones (long shared prefixes, moved keyed
// subtrees) and unrelated pairs (no prefix at all).
func TestLCSPairsMatchReference(t *testing.T) {
	for seed := 0; seed < 1500; seed++ {
		r := rand.New(rand.NewSource(int64(seed) + 3_000_000))
		ids := 0
		old := genDocument(r)
		var new *Node
		if seed%5 == 4 {
			new = genDocument(r)
		} else {
			new = old.Clone()
			for applied := r.Intn(8) + 1; applied > 0; {
				if mutate(r, new, &ids) {
					applied--
				}
			}
		}
		checkAlignment(t, old, new)
	}
}
