package dom

// Incremental tree diff and patch: the delta discipline behind RCB's
// deltaContent protocol. Diff compares two trees and produces a minimal-ish
// edit script of structural operations; Apply replays that script against a
// tree that is byte-identical to the old side. The pair is exact — patches
// carry whole subtrees as nodes, never as re-parsed HTML — so
// Apply(old, Diff(old, new)) reproduces new's serialization for arbitrary
// trees, a property the diff_prop_test harness and FuzzDiffApply enforce.
//
// Paths address nodes by child index over ALL children (text and comment
// nodes included), root-first, dot-separated ("1.0.3"; the root itself is
// ""). They differ from core.ElementPath, which counts element children
// only: patch paths must be able to name a text node. Every path and insert
// index in an edit script is valid at the moment its patch is applied, so a
// script is replayed front to back with no bookkeeping.

import (
	"fmt"
	"strconv"
	"strings"
)

// PatchOp enumerates the edit operations a Diff script uses.
type PatchOp uint8

const (
	// OpSetAttrs replaces the full attribute list of the element at Path.
	OpSetAttrs PatchOp = iota
	// OpSetText replaces the Data of the text/comment/doctype node at Path.
	OpSetText
	// OpRemove detaches the node at Path from its parent.
	OpRemove
	// OpInsert inserts Node as a child of the element at Path, at Index.
	OpInsert
	// OpReplace swaps the node at Path for Node in place.
	OpReplace
)

// String returns a short mnemonic for the op, used in error messages.
func (op PatchOp) String() string {
	switch op {
	case OpSetAttrs:
		return "set-attrs"
	case OpSetText:
		return "set-text"
	case OpRemove:
		return "remove"
	case OpInsert:
		return "insert"
	case OpReplace:
		return "replace"
	}
	return fmt.Sprintf("PatchOp(%d)", int(op))
}

// Patch is one edit operation. Which fields are meaningful depends on Op:
// Attrs for OpSetAttrs, Text for OpSetText, Index and Node for OpInsert,
// Node for OpReplace. Subtrees in Node are owned by the patch: Apply
// attaches them directly, so a patch list must be applied at most once.
type Patch struct {
	Op    PatchOp
	Path  string // target node; for OpInsert, the parent element
	Index int    // OpInsert: child slot in the parent at apply time
	Text  string // OpSetText payload
	Attrs []Attr // OpSetAttrs payload
	Node  *Node  // OpInsert/OpReplace subtree (detached, owned by the patch)
}

// Diff computes an edit script that transforms a tree serialization-equal to
// old into one serialization-equal to new. Children are aligned with a
// longest-common-subsequence over shallow compatibility — same node type,
// same tag, and (when either side carries an id attribute) the same id — so
// keyed subtrees that moved are re-matched rather than rebuilt, and edits
// inside a matched subtree recurse instead of replacing it. Subtrees carried
// by insert/replace patches are deep clones: Diff never aliases new.
//
// old and new are not mutated. If the roots themselves are incompatible the
// script is a single OpReplace at the root path, which Apply performs by
// morphing the root in place (the caller's *Node stays valid).
func Diff(old, new *Node) []Patch {
	var out []Patch
	if !shallowCompatible(old, new) {
		return append(out, Patch{Op: OpReplace, Path: "", Node: new.Clone()})
	}
	diffNode(old, new, "", &out)
	return out
}

// keyOf returns the keyed-diff identity of an element: its id attribute when
// present. Elements with different ids never match, so a keyed list reorder
// diffs as moves of whole subtrees instead of a cascade of in-place edits.
func keyOf(n *Node) (string, bool) {
	if n.Type != ElementNode {
		return "", false
	}
	return n.Attr("id")
}

// shallowCompatible reports whether a and b can be matched for recursive
// diffing: same type, and for elements the same tag and id key.
func shallowCompatible(a, b *Node) bool {
	if a.Type != b.Type {
		return false
	}
	if a.Type != ElementNode {
		return true
	}
	if a.Tag != b.Tag {
		return false
	}
	ak, aok := keyOf(a)
	bk, bok := keyOf(b)
	return aok == bok && ak == bk
}

// diffNode emits the edits that turn old into new; the two are assumed
// shallow-compatible and located at path.
func diffNode(old, new *Node, path string, out *[]Patch) {
	if old.Type != ElementNode {
		if old.Data != new.Data {
			*out = append(*out, Patch{Op: OpSetText, Path: path, Text: new.Data})
		}
		return
	}
	if !attrListsEqual(old.Attrs, new.Attrs) {
		*out = append(*out, Patch{Op: OpSetAttrs, Path: path, Attrs: append([]Attr(nil), new.Attrs...)})
	}
	diffChildren(old, new, path, out)
}

func attrListsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lcsLimit caps the O(m·n) alignment table. Past it (pathological fan-out,
// fuzzed inputs) diffChildren degrades to positional pairing, which is still
// correct — just a larger script.
const lcsLimit = 1 << 16

// diffChildren aligns the child lists of old and new and emits the child
// edits followed by recursive edits inside each matched pair. Ops at this
// level are emitted in apply order: the running cursor tracks each touched
// slot's index in the partially-patched list, so removes, inserts and
// replaces use the index they will find at apply time.
func diffChildren(old, new *Node, path string, out *[]Patch) {
	oc, nc := old.Children, new.Children
	var pairs [][2]int
	if len(oc)*len(nc) > lcsLimit {
		pairs = compatiblePrefix(oc, nc)
	} else {
		pairs = lcsPairs(oc, nc)
	}

	oi, nj, cursor := 0, 0, 0
	emitGap := func(oEnd, nEnd int) {
		k, l := oEnd-oi, nEnd-nj
		r := k
		if l < r {
			r = l
		}
		for x := 0; x < r; x++ {
			*out = append(*out, Patch{Op: OpReplace, Path: childPath(path, cursor), Node: nc[nj+x].Clone()})
			cursor++
		}
		for x := r; x < k; x++ {
			// Each remove shifts the tail left, so the index stays put.
			*out = append(*out, Patch{Op: OpRemove, Path: childPath(path, cursor)})
		}
		for x := r; x < l; x++ {
			*out = append(*out, Patch{Op: OpInsert, Path: path, Index: cursor, Node: nc[nj+x].Clone()})
			cursor++
		}
		oi, nj = oEnd, nEnd
	}
	for _, pr := range pairs {
		emitGap(pr[0], pr[1])
		diffNode(oc[pr[0]], nc[pr[1]], childPath(path, cursor), out)
		cursor++
		oi, nj = pr[0]+1, pr[1]+1
	}
	emitGap(len(oc), len(nc))
}

// lcsPairs returns the index pairs of a longest common subsequence of old
// and new children under shallow compatibility. The compatible common
// prefix is paired directly — the backtrack below would take exactly those
// (i, i) pairs first, since a compatible cell always extends its diagonal —
// so unchanged child lists skip the table entirely. Each remaining child's
// shape is computed once, not per table cell.
func lcsPairs(oc, nc []*Node) [][2]int {
	pairs := compatiblePrefix(oc, nc)
	p := len(pairs)
	m, n := len(oc)-p, len(nc)-p
	if m == 0 || n == 0 {
		return pairs
	}
	osh, nsh := shapesOf(oc[p:]), shapesOf(nc[p:])
	// dp[i][j] = LCS length of osh[i:], nsh[j:], flattened row-major.
	dp := make([]int, (m+1)*(n+1))
	idx := func(i, j int) int { return i*(n+1) + j }
	for i := m - 1; i >= 0; i-- {
		for j := n - 1; j >= 0; j-- {
			if osh[i] == nsh[j] {
				dp[idx(i, j)] = dp[idx(i+1, j+1)] + 1
			} else if dp[idx(i+1, j)] >= dp[idx(i, j+1)] {
				dp[idx(i, j)] = dp[idx(i+1, j)]
			} else {
				dp[idx(i, j)] = dp[idx(i, j+1)]
			}
		}
	}
	if pairs == nil {
		pairs = make([][2]int, 0, dp[0])
	}
	for i, j := 0, 0; i < m && j < n; {
		switch {
		case osh[i] == nsh[j] && dp[idx(i, j)] == dp[idx(i+1, j+1)]+1:
			pairs = append(pairs, [2]int{p + i, p + j})
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

// compatiblePrefix pairs oc[i] with nc[i] for as long as the two are
// shallow-compatible.
func compatiblePrefix(oc, nc []*Node) [][2]int {
	var pairs [][2]int
	for i := 0; i < len(oc) && i < len(nc) && shallowCompatible(oc[i], nc[i]); i++ {
		if pairs == nil {
			pairs = make([][2]int, 0, min(len(oc), len(nc)))
		}
		pairs = append(pairs, [2]int{i, i})
	}
	return pairs
}

// nodeShape is the part of a node shallow compatibility looks at: two
// nodes are compatible exactly when their shapes are equal.
type nodeShape struct {
	typ   NodeType
	tag   string
	key   string
	keyed bool
}

func shapesOf(nodes []*Node) []nodeShape {
	out := make([]nodeShape, len(nodes))
	for i, c := range nodes {
		out[i] = nodeShape{typ: c.Type}
		if c.Type == ElementNode {
			out[i].tag = c.Tag
			out[i].key, out[i].keyed = keyOf(c)
		}
	}
	return out
}

// childPath extends a parent path with one child index.
func childPath(parent string, idx int) string {
	if parent == "" {
		return strconv.Itoa(idx)
	}
	var buf [24]byte
	b := append(buf[:0], parent...)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(idx), 10)
	return string(b)
}

// ResolveChildPath walks an all-children patch path from root. It returns
// the node plus its parent and child slot (parent is nil and idx -1 for the
// root itself), or an error when the path does not resolve — the signal the
// snippet uses to fall back to a full re-parse.
func ResolveChildPath(root *Node, path string) (n, parent *Node, idx int, err error) {
	n, parent, idx = root, nil, -1
	for path != "" {
		part, rest, found := strings.Cut(path, ".")
		if part == "" || (found && rest == "") {
			return nil, nil, 0, fmt.Errorf("dom: malformed patch path segment")
		}
		path = rest
		i, convErr := strconv.Atoi(part)
		if convErr != nil || i < 0 {
			return nil, nil, 0, fmt.Errorf("dom: bad patch path index %q", part)
		}
		if i >= len(n.Children) {
			return nil, nil, 0, fmt.Errorf("dom: patch path index %d out of range (%d children)", i, len(n.Children))
		}
		parent, idx, n = n, i, n.Children[i]
	}
	return n, parent, idx, nil
}

// Apply replays an edit script against root. Patches are applied in order;
// each patch's path is interpreted against the tree as left by the patches
// before it. On error the tree may be partially patched — callers that need
// atomicity must re-install from a full snapshot, which is exactly what the
// snippet's delta fallback does.
//
// Apply attaches patch subtrees directly (no defensive clone), so a patch
// list must not be applied twice and must not be mutated afterwards.
func Apply(root *Node, patches []Patch) error {
	for i := range patches {
		if err := applyOne(root, &patches[i]); err != nil {
			return fmt.Errorf("dom: patch %d (%s at %q): %w", i, patches[i].Op, patches[i].Path, err)
		}
	}
	return nil
}

func applyOne(root *Node, p *Patch) error {
	target, parent, slot, err := ResolveChildPath(root, p.Path)
	if err != nil {
		return err
	}
	switch p.Op {
	case OpSetAttrs:
		if target.Type != ElementNode {
			return fmt.Errorf("set-attrs on %s node", target.Type)
		}
		target.Attrs = append(target.Attrs[:0:0], p.Attrs...)
	case OpSetText:
		if target.Type == ElementNode {
			return fmt.Errorf("set-text on element <%s>", target.Tag)
		}
		target.Data = p.Text
	case OpRemove:
		if parent == nil {
			return fmt.Errorf("cannot remove the root")
		}
		parent.RemoveChild(target)
	case OpInsert:
		if p.Node == nil {
			return fmt.Errorf("insert with no node")
		}
		if target.Type != ElementNode {
			return fmt.Errorf("insert into %s node", target.Type)
		}
		if p.Index < 0 || p.Index > len(target.Children) {
			return fmt.Errorf("insert index %d out of range (%d children)", p.Index, len(target.Children))
		}
		if p.Index == len(target.Children) {
			target.AppendChild(p.Node)
		} else {
			target.InsertBefore(p.Node, target.Children[p.Index])
		}
	case OpReplace:
		if p.Node == nil {
			return fmt.Errorf("replace with no node")
		}
		if parent == nil {
			// Root replace: morph in place so the caller's pointer stays
			// valid. The payload's own identity is discarded.
			root.Type, root.Tag, root.Data = p.Node.Type, p.Node.Tag, p.Node.Data
			root.Attrs = p.Node.Attrs
			root.Children = p.Node.Children
			for _, c := range root.Children {
				c.Parent = root
			}
			return nil
		}
		p.Node.Parent = parent
		target.Parent = nil
		parent.Children[slot] = p.Node
	default:
		return fmt.Errorf("unknown op")
	}
	return nil
}
