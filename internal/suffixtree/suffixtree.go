// Package suffixtree implements the compact prefix tree of Weiner used
// by the paper's Algorithm 4 (Section 3.3).
//
// For a string S terminated by a unique endmarker, the prefix
// identifier of position i is the shortest substring that occurs in S
// only at position i; the prefix tree is the trie of all prefix
// identifiers, and the compact prefix tree condenses its unary chains.
// That structure is exactly the suffix tree of S: each leaf corresponds
// to one position (suffix), each internal vertex to a right-extensible
// repeated substring, and the depth D(v) recorded on a condensed vertex
// (the depth of the deepest chain vertex, as the paper prescribes)
// equals the string depth of the suffix-tree node.
//
// Substitution note (see DESIGN.md): the paper builds the tree with
// Weiner's 1973 right-to-left algorithm; we build the identical
// structure with Ukkonen's left-to-right on-line algorithm, which is
// also linear in time and space for a fixed alphabet. BuildNaive
// constructs the same tree in O(n²) and is used as the structural
// oracle in tests.
package suffixtree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrEmpty is returned when building a tree over an empty string.
var ErrEmpty = errors.New("suffixtree: empty string")

// Node is a vertex of the compact prefix tree. Leaves carry the
// 0-based position of the suffix they identify; internal nodes carry
// LeafPos == -1. Depth is the string depth: the total label length on
// the path from the root, i.e. the paper's D(v) annotation.
type Node struct {
	// Start and End delimit the incoming edge label S[Start:End]
	// (End exclusive). The root has Start == End == 0.
	Start, End int
	// Depth is the string depth of the node (paper's D(v)).
	Depth int
	// LeafPos is the suffix position for leaves, -1 for internal nodes.
	LeafPos int
	// Children maps the first symbol of each outgoing edge label to
	// the child node. Empty for leaves.
	Children map[byte]*Node

	suffixLink *Node
}

// IsLeaf reports whether n identifies a single position of S.
func (n *Node) IsLeaf() bool { return n.LeafPos >= 0 }

// Tree is a compact prefix tree (suffix tree) over a byte string.
type Tree struct {
	s    []byte
	root *Node
}

// String returns the underlying string (including any endmarkers).
func (t *Tree) Bytes() []byte { return t.s }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Build constructs the compact prefix tree of s in O(len(s)) time for
// a fixed alphabet using Ukkonen's on-line algorithm. The caller must
// ensure the final symbol of s is unique within s (an endmarker), so
// that every position has a prefix identifier and hence its own leaf;
// Build verifies this and returns an error otherwise.
func Build(s []byte) (*Tree, error) {
	if err := checkEndmarker(s); err != nil {
		return nil, err
	}
	t := &Tree{s: s}
	t.build()
	t.annotate()
	return t, nil
}

// BuildNaive constructs the same tree by inserting each suffix into a
// compact trie, in O(n²) time. It exists as the reference oracle: a
// structurally independent implementation against which Build is
// cross-checked.
func BuildNaive(s []byte) (*Tree, error) {
	if err := checkEndmarker(s); err != nil {
		return nil, err
	}
	t := &Tree{s: s}
	t.root = &Node{LeafPos: -1, Children: make(map[byte]*Node)}
	for i := range s {
		t.insertSuffixNaive(i)
	}
	t.annotate()
	return t, nil
}

func checkEndmarker(s []byte) error {
	if len(s) == 0 {
		return ErrEmpty
	}
	last := s[len(s)-1]
	for i := 0; i < len(s)-1; i++ {
		if s[i] == last {
			return fmt.Errorf("suffixtree: final symbol %d is not unique (also at position %d)", last, i)
		}
	}
	return nil
}

func (t *Tree) insertSuffixNaive(pos int) {
	cur := t.root
	i := pos
	for {
		c := t.s[i]
		child, ok := cur.Children[c]
		if !ok {
			cur.Children[c] = &Node{Start: i, End: len(t.s), LeafPos: pos}
			return
		}
		// Walk down the edge as far as it matches.
		j := child.Start
		for j < child.End && i < len(t.s) && t.s[j] == t.s[i] {
			j++
			i++
		}
		if j == child.End {
			cur = child
			continue
		}
		// Split the edge at j.
		mid := &Node{Start: child.Start, End: j, LeafPos: -1, Children: make(map[byte]*Node)}
		cur.Children[c] = mid
		child.Start = j
		mid.Children[t.s[j]] = child
		mid.Children[t.s[i]] = &Node{Start: i, End: len(t.s), LeafPos: pos}
		return
	}
}

// build is Ukkonen's algorithm. The tree uses open leaves (End ==
// len(s)); because the final symbol is unique, every suffix ends at a
// leaf when the scan completes, and leaf positions are recovered in
// annotate from string depths.
func (t *Tree) build() {
	s := t.s
	n := len(s)
	root := &Node{LeafPos: -1, Children: make(map[byte]*Node)}
	t.root = root

	activeNode := root
	activeEdge := 0 // index into s of the active edge's first symbol
	activeLen := 0
	remainder := 0

	for i := 0; i < n; i++ {
		var lastInternal *Node
		remainder++
		for remainder > 0 {
			if activeLen == 0 {
				activeEdge = i
			}
			child, ok := activeNode.Children[s[activeEdge]]
			if !ok {
				// Rule 2: new leaf from activeNode.
				activeNode.Children[s[activeEdge]] = &Node{Start: i, End: n, LeafPos: -1}
				if lastInternal != nil {
					lastInternal.suffixLink = activeNode
					lastInternal = nil
				}
			} else {
				edgeLen := child.End - child.Start
				if activeLen >= edgeLen {
					// Walk down.
					activeEdge += edgeLen
					activeLen -= edgeLen
					activeNode = child
					continue
				}
				if s[child.Start+activeLen] == s[i] {
					// Rule 3: current symbol already present; extend
					// the active point and stop this phase.
					activeLen++
					if lastInternal != nil {
						lastInternal.suffixLink = activeNode
					}
					break
				}
				// Rule 2 with split.
				mid := &Node{
					Start:    child.Start,
					End:      child.Start + activeLen,
					LeafPos:  -1,
					Children: make(map[byte]*Node),
				}
				activeNode.Children[s[activeEdge]] = mid
				child.Start += activeLen
				mid.Children[s[child.Start]] = child
				mid.Children[s[i]] = &Node{Start: i, End: n, LeafPos: -1}
				if lastInternal != nil {
					lastInternal.suffixLink = mid
				}
				lastInternal = mid
			}
			remainder--
			if activeNode == root && activeLen > 0 {
				activeLen--
				activeEdge = i - remainder + 1
			} else if activeNode != root {
				if activeNode.suffixLink != nil {
					activeNode = activeNode.suffixLink
				} else {
					activeNode = root
				}
			}
		}
	}
}

// annotate computes string depths and leaf positions with an iterative
// depth-first traversal (recursion depth can reach the string length
// for highly repetitive inputs, so an explicit stack is used).
func (t *Tree) annotate() {
	n := len(t.s)
	type frame struct {
		node  *Node
		depth int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f.node.Depth = f.depth
		if len(f.node.Children) == 0 {
			// Leaf: the suffix position is n minus the string depth.
			f.node.LeafPos = n - f.depth
		} else {
			f.node.LeafPos = -1
			for _, c := range f.node.Children {
				stack = append(stack, frame{c, f.depth + (c.End - c.Start)})
			}
		}
	}
}

// Walk visits every node in depth-first post-order (children before
// parents), invoking fn for each. Children are visited in increasing
// edge-symbol order, so traversals are deterministic.
func (t *Tree) Walk(fn func(*Node)) {
	var visit func(n *Node)
	visit = func(n *Node) {
		for _, c := range sortedChildren(n) {
			visit(c)
		}
		fn(n)
	}
	visit(t.root)
}

// SortedChildren returns n's children ordered by their edge's first
// symbol, giving callers a deterministic traversal order.
func SortedChildren(n *Node) []*Node { return sortedChildren(n) }

func sortedChildren(n *Node) []*Node {
	if len(n.Children) == 0 {
		return nil
	}
	keys := make([]int, 0, len(n.Children))
	for k := range n.Children {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	out := make([]*Node, len(keys))
	for i, k := range keys {
		out[i] = n.Children[byte(k)]
	}
	return out
}

// NumNodes returns the total number of vertices; the compact prefix
// tree of a string of length n has O(n) of them (≤ 2n).
func (t *Tree) NumNodes() int {
	count := 0
	t.Walk(func(*Node) { count++ })
	return count
}

// NumLeaves returns the number of leaves, one per position of S.
func (t *Tree) NumLeaves() int {
	count := 0
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			count++
		}
	})
	return count
}

// Contains reports whether sub occurs in S, by walking from the root.
func (t *Tree) Contains(sub []byte) bool {
	node := t.root
	i := 0
	for i < len(sub) {
		child, ok := node.Children[sub[i]]
		if !ok {
			return false
		}
		for j := child.Start; j < child.End && i < len(sub); j++ {
			if t.s[j] != sub[i] {
				return false
			}
			i++
		}
		node = child
	}
	return true
}

// Equal reports whether two trees are structurally identical: same
// string, same shape, same edge labels, same depths and leaf labels.
func (t *Tree) Equal(o *Tree) bool {
	if string(t.s) != string(o.s) {
		return false
	}
	return nodeEqual(t.s, t.root, o.root)
}

func nodeEqual(s []byte, a, b *Node) bool {
	if a.Depth != b.Depth || a.LeafPos != b.LeafPos {
		return false
	}
	if string(s[a.Start:a.End]) != string(s[b.Start:b.End]) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for k, ca := range a.Children {
		cb, ok := b.Children[k]
		if !ok || !nodeEqual(s, ca, cb) {
			return false
		}
	}
	return true
}

// Dump renders the tree as an indented listing for debugging.
func (t *Tree) Dump() string {
	var b strings.Builder
	var visit func(n *Node, indent int)
	visit = func(n *Node, indent int) {
		b.WriteString(strings.Repeat("  ", indent))
		if n == t.root {
			b.WriteString("(root)")
		} else {
			fmt.Fprintf(&b, "%q", t.s[n.Start:n.End])
		}
		if n.IsLeaf() {
			fmt.Fprintf(&b, " leaf=%d", n.LeafPos)
		}
		fmt.Fprintf(&b, " depth=%d\n", n.Depth)
		for _, c := range sortedChildren(n) {
			visit(c, indent+1)
		}
	}
	visit(t.root, 0)
	return b.String()
}
