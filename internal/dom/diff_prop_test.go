package dom

// Property-based round-trip harness for the diff/patch subsystem: generate a
// random DOM tree, run a random mutation script against a clone, and assert
// that Apply(old, Diff(old, new)) serializes byte-identically to new. The
// generator deliberately produces hostile shapes — keyed and unkeyed
// siblings, duplicate ids, raw-text and void elements, unicode and
// metacharacter text — because the delta protocol's correctness rests
// entirely on this invariant holding for arbitrary trees.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// DelAttr removes the named attribute if present.
func (n *Node) DelAttr(name string) {
	for i, a := range n.Attrs {
		if strings.EqualFold(a.Name, name) {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

var genTags = []string{"div", "span", "p", "ul", "li", "table", "tr", "td", "a", "b", "i", "em", "h1", "form", "input", "img", "br", "script", "style", "title"}

var genAttrNames = []string{"class", "href", "src", "data-x", "title", "value", "style", "name"}

var genTextPieces = []string{
	"hello", "world", "  ", "\n", "a&b", "x<y", "quote\"s", "it's",
	"ünïcødé ✓", "tab\tsep", "0", "long run of plain words here",
}

// genValue builds a short random string, including metacharacters.
func genValue(r *rand.Rand) string {
	n := r.Intn(3) + 1
	s := ""
	for i := 0; i < n; i++ {
		s += genTextPieces[r.Intn(len(genTextPieces))]
	}
	return s
}

// genTree builds a random subtree. ids issues document-unique id attributes
// so keyed matching gets exercised; one in eight keyed elements reuses a
// previous id to stress duplicate keys.
func genTree(r *rand.Rand, depth int, ids *int) *Node {
	switch r.Intn(10) {
	case 0:
		return NewComment(genValue(r))
	case 1, 2:
		return NewText(genValue(r))
	}
	el := NewElement(genTags[r.Intn(len(genTags))])
	for i := r.Intn(3); i > 0; i-- {
		el.SetAttr(genAttrNames[r.Intn(len(genAttrNames))], genValue(r))
	}
	if r.Intn(3) == 0 {
		*ids++
		id := *ids
		if id > 8 && r.Intn(8) == 0 {
			id = r.Intn(id) + 1 // deliberate duplicate key
		}
		el.SetAttr("id", fmt.Sprintf("k%d", id))
	}
	if IsVoid(el.Tag) {
		return el
	}
	if IsRawText(el.Tag) {
		if r.Intn(2) == 0 {
			el.AppendChild(NewText(genValue(r)))
		}
		return el
	}
	if depth > 0 {
		for i := r.Intn(4); i > 0; i-- {
			el.AppendChild(genTree(r, depth-1, ids))
		}
	}
	return el
}

// genDocument builds a random full tree under an <html> root.
func genDocument(r *rand.Rand) *Node {
	ids := 0
	root := NewElement("html")
	for i := r.Intn(5) + 1; i > 0; i-- {
		root.AppendChild(genTree(r, 3, &ids))
	}
	return root
}

// allNodes collects the subtree in document order.
func allNodes(root *Node) []*Node {
	var out []*Node
	root.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// inSubtree reports whether n is root or a descendant of root.
func inSubtree(root, n *Node) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur == root {
			return true
		}
	}
	return false
}

// mutate applies one random mutation to the tree; it reports false when the
// chosen mutation was not applicable (caller retries).
func mutate(r *rand.Rand, root *Node, ids *int) bool {
	nodes := allNodes(root)
	n := nodes[r.Intn(len(nodes))]
	switch r.Intn(7) {
	case 0: // set attribute
		if n.Type != ElementNode {
			return false
		}
		n.SetAttr(genAttrNames[r.Intn(len(genAttrNames))], genValue(r))
	case 1: // delete attribute
		if n.Type != ElementNode || len(n.Attrs) == 0 {
			return false
		}
		n.DelAttr(n.Attrs[r.Intn(len(n.Attrs))].Name)
	case 2: // edit text
		if n.Type != TextNode && n.Type != CommentNode {
			return false
		}
		n.Data = genValue(r)
	case 3: // insert subtree
		if n.Type != ElementNode || IsVoid(n.Tag) || IsRawText(n.Tag) {
			return false
		}
		c := genTree(r, 2, ids)
		if len(n.Children) == 0 {
			n.AppendChild(c)
		} else {
			n.InsertBefore(c, n.Children[r.Intn(len(n.Children))])
		}
	case 4: // remove subtree
		if n.Parent == nil {
			return false
		}
		n.Parent.RemoveChild(n)
	case 5: // move subtree elsewhere
		if n.Parent == nil {
			return false
		}
		dest := nodes[r.Intn(len(nodes))]
		if dest.Type != ElementNode || IsVoid(dest.Tag) || IsRawText(dest.Tag) || inSubtree(n, dest) {
			return false
		}
		n.Parent.RemoveChild(n)
		if len(dest.Children) == 0 {
			dest.AppendChild(n)
		} else {
			dest.InsertBefore(n, dest.Children[r.Intn(len(dest.Children))])
		}
	case 6: // swap two sibling positions (reorder)
		if n.Type != ElementNode || len(n.Children) < 2 {
			return false
		}
		i, j := r.Intn(len(n.Children)), r.Intn(len(n.Children))
		n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
	}
	return true
}

// TestDiffApplyPropertyRoundTrip is the ≥1k-case harness: for each seed,
// generate a tree, mutate a clone 1–8 times, and require the diff script to
// reproduce the mutated tree byte-for-byte when applied to the original.
func TestDiffApplyPropertyRoundTrip(t *testing.T) {
	const cases = 1200
	for seed := 0; seed < cases; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		ids := 0
		old := genDocument(r)
		new := old.Clone()
		muts := r.Intn(8) + 1
		for applied := 0; applied < muts; {
			if mutate(r, new, &ids) {
				applied++
			}
		}
		oldHTML := OuterHTML(old)
		wantHTML := OuterHTML(new)

		patches := Diff(old, new)
		if err := Apply(old, patches); err != nil {
			t.Fatalf("seed %d: Apply: %v\nold: %s\nnew: %s", seed, err, oldHTML, wantHTML)
		}
		if got := OuterHTML(old); got != wantHTML {
			t.Fatalf("seed %d: round trip diverged\n old: %s\n got: %s\nwant: %s\npatches: %+v",
				seed, oldHTML, got, wantHTML, patches)
		}
		// Diff must never alias the new tree: the applied old tree and new
		// must not share nodes (a shared node would let a later mutation of
		// one corrupt the other).
		seen := map[*Node]bool{}
		for _, n := range allNodes(new) {
			seen[n] = true
		}
		for _, n := range allNodes(old) {
			if seen[n] {
				t.Fatalf("seed %d: applied tree aliases a node of the new tree", seed)
			}
		}
	}
}

// TestDiffApplyPropertyAcrossIndependentTrees diffs two unrelated random
// trees — the worst case for alignment — and still requires convergence.
func TestDiffApplyPropertyAcrossIndependentTrees(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		r := rand.New(rand.NewSource(int64(seed) + 1_000_000))
		old := genDocument(r)
		new := genDocument(r)
		want := OuterHTML(new)
		patches := Diff(old, new)
		if err := Apply(old, patches); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		if got := OuterHTML(old); got != want {
			t.Fatalf("seed %d: independent trees diverged\n got: %s\nwant: %s", seed, got, want)
		}
	}
}

// TestDiffPatchCountStaysProportional is the quality guard: a single small
// mutation on a sizable tree must not explode into a whole-tree rewrite.
func TestDiffPatchCountStaysProportional(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		r := rand.New(rand.NewSource(int64(seed) + 2_000_000))
		ids := 0
		old := genDocument(r)
		new := old.Clone()
		for !mutate(r, new, &ids) {
		}
		patches := Diff(old, new)
		if len(patches) > 4 {
			t.Fatalf("seed %d: one mutation produced %d patches: %+v", seed, len(patches), patches)
		}
		if err := Apply(old, patches); err != nil {
			t.Fatal(err)
		}
	}
}
