package core

import (
	"fmt"

	"repro/internal/suffixtree"
	"repro/internal/word"
)

// Endmarkers of Algorithm 4's strings: ⊥ and ⊤, distinct from every
// digit (digits are < 36).
const (
	markBot = 0xFE // ⊥
	markTop = 0xFF // ⊤
)

// buildS assembles S = X ⊥ Y ⊤.
//
// Faithfulness note (Section 3.3, DESIGN.md): the report's Algorithm 4
// builds two trees, over X⊥Ȳ⊤ and X̄⊥Ȳ⊤, and combines leaf minima via
// p(v)+q(v)-D(v). As transcribed, the LCP of an X-leaf and a Ȳ-leaf in
// that string matches X forward against Y backward, which is not the
// matching function l_{i,j} of definition (8) that Theorem 2 needs
// (counter-example in the tests). The reduction below is the repaired
// version with the same data structure and the same O(k) bounds, and
// needs only ONE tree:
//
// Both halves of Theorem 2 minimize over substring matches anchored at
// one start and one end. Re-anchoring at the two starts (m = j-s+1 for
// the l-part, m = i-s+1 for the r-part) turns both into forward-forward
// common substrings of X and Y, which are exactly the internal vertices
// of the compact prefix tree of S = X⊥Y⊤:
//
//	min_{i,j}(i-j-l_{i,j})   = min_v( minX(v) - maxY(v) - 2D(v) + 1 )
//	min_{i,j}(-i+j-r_{i,j})  = min_v( minY(v) - maxX(v) - 2D(v) + 1 )
//
// over internal vertices v with D(v) ≥ 1 having at least one X-leaf
// and one Y-leaf below, where minX/maxX (minY/maxY) are the smallest
// and largest 1-based X-positions (Y-positions) of leaves in v's
// subtree — the role played by the paper's p(v) and q(v). Matches with
// s = 0 never beat the trivial length-k path, which lines 5–6 of
// Algorithm 2 already handle.
func buildS(x, y []byte) []byte {
	s := make([]byte, 0, 2*len(x)+2)
	s = append(s, x...)
	s = append(s, markBot)
	s = append(s, y...)
	s = append(s, markTop)
	return s
}

// treeAnchorsPointer walks the compact prefix tree of S = X⊥Y⊤ once,
// computing the subtree position extrema and returning the minimizing
// anchors of both halves of Theorem 2, first in (dist, s, t) order —
// the quadratic sweep's tie-break. O(k) time and space. It is the
// recursive reference over the pointer suffix tree, allocating one
// tree per call; scratch.treeAnchors is the arena walk the kernels
// run, pinned to this one anchor-for-anchor by the tests.
func treeAnchorsPointer(x, y []byte) (aL, aR anchor, err error) {
	k := len(x)
	tree, err := suffixtree.Build(buildS(x, y))
	if err != nil {
		return anchor{}, anchor{}, fmt.Errorf("core: building prefix tree: %w", err)
	}
	const inf = 1 << 30
	aL = anchor{dist: inf}
	aR = anchor{dist: inf}

	type extrema struct {
		minX, maxX, minY, maxY int // 1-based positions; minima inf / maxima 0 when absent
	}
	var visit func(n *suffixtree.Node) extrema
	visit = func(n *suffixtree.Node) extrema {
		if n.IsLeaf() {
			e := extrema{minX: inf, minY: inf}
			pos := n.LeafPos // 0-based position in S
			switch {
			case pos < k: // inside X
				e.minX, e.maxX = pos+1, pos+1
			case pos >= k+1 && pos < 2*k+1: // inside Y
				e.minY, e.maxY = pos-k, pos-k
			}
			return e
		}
		e := extrema{minX: inf, minY: inf}
		// Deterministic traversal: tie-breaks in the argmin below must
		// not depend on map iteration order.
		for _, c := range suffixtree.SortedChildren(n) {
			ce := visit(c)
			if ce.minX < e.minX {
				e.minX = ce.minX
			}
			if ce.maxX > e.maxX {
				e.maxX = ce.maxX
			}
			if ce.minY < e.minY {
				e.minY = ce.minY
			}
			if ce.maxY > e.maxY {
				e.maxY = ce.maxY
			}
		}
		if n.Depth >= 1 && e.minX < inf && e.maxY > 0 {
			// l-part candidate: i = minX, j = maxY + D - 1, θ = D.
			if d := 2*k - 1 + e.minX - e.maxY - 2*n.Depth + 1; d <= aL.dist {
				if c := (anchor{s: e.minX, t: e.maxY + n.Depth - 1, theta: n.Depth, dist: d}); d < aL.dist || c.before(aL) {
					aL = c
				}
			}
			// r-part candidate: i = maxX + D - 1, j = minY, θ = D.
			if d := 2*k - 1 + e.minY - e.maxX - 2*n.Depth + 1; d <= aR.dist {
				if c := (anchor{s: e.maxX + n.Depth - 1, t: e.minY, theta: n.Depth, dist: d}); d < aR.dist || c.before(aR) {
					aR = c
				}
			}
		}
		return e
	}
	visit(tree.Root())
	if aL.dist > k {
		aL = anchor{dist: k} // trivial-path sentinel (line 5)
	}
	if aR.dist > k {
		aR = anchor{dist: k}
	}
	return aL, aR, nil
}

// UndirectedDistanceLinear evaluates Theorem 2's distance in O(k) time
// via the compact prefix tree — the distance computation inside
// Algorithm 4.
func UndirectedDistanceLinear(x, y word.Word) (int, error) {
	sc := getScratch()
	d, err := sc.UndirectedDistanceLinear(x, y)
	putScratch(sc)
	return d, err
}

// RouteUndirectedLinear is Algorithm 4: a shortest routing path from X
// to Y in the bi-directional de Bruijn network in O(k) time and space,
// using Weiner's compact prefix tree in place of the O(k²)
// failure-function sweep of Algorithm 2. The path-construction step
// (lines 5–9) is shared with Algorithm 2.
func RouteUndirectedLinear(x, y word.Word) (Path, error) {
	sc := getScratch()
	p, err := sc.RouteUndirectedLinear(x, y)
	putScratch(sc)
	return p, err
}
