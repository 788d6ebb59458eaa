package core

import (
	"fmt"
	"sync"

	"repro/internal/match"
	"repro/internal/suffixtree"
	"repro/internal/word"
)

// scratch is the T3 tier of Kernels: it bundles every reusable buffer
// the routing algorithms need — digit buffers, Morris–Pratt tables,
// the suffix-tree arena, the generalized-string assembly, and the
// tree-walk bookkeeping — so that repeated distance evaluation and
// route construction on one DG(d,k) perform no per-query heap
// allocation beyond returned paths. The zero value is ready to use.
// Not safe for concurrent use.
//
// The package-level one-shot functions (UndirectedDistance,
// RouteUndirectedLinear, …) keep their signatures and route through an
// internal sync.Pool of these, so casual callers get the same
// near-zero allocation profile without holding state.
type scratch struct {
	ms     match.Scratch      // failure tables + matching rows
	ts     suffixtree.Scratch // node arena for Algorithm 4's tree
	sbuf   []byte             // X⊥Y⊤ assembly
	xd, yd []byte             // digit buffers (no word.Digits copies)
	ext    []extrema          // per-node subtree extrema, arena-indexed
	frames []aframe           // iterative post-order stack
	path   Path               // hop buffer for Kernels' next-hop queries
}

var corePool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return corePool.Get().(*scratch) }
func putScratch(sc *scratch) { corePool.Put(sc) }

// extrema carries the 1-based X- and Y-position extrema of the leaves
// below one tree vertex (minima saturate high, maxima at 0 when the
// respective side is absent) — the role of the paper's p(v), q(v).
type extrema struct {
	minX, maxX, minY, maxY int
}

// aframe is one frame of the iterative post-order tree walk: the
// vertex and the next child to descend into.
type aframe struct {
	id, child int32
}

// loadDigits fills sc.xd/sc.yd with the digits of x and y without
// allocating (word.Digits copies; AppendDigits reuses the buffer).
func (sc *scratch) loadDigits(x, y word.Word) {
	sc.xd = x.AppendDigits(sc.xd[:0])
	sc.yd = y.AppendDigits(sc.yd[:0])
}

// DirectedDistance is Property 1 (see the package-level function)
// evaluated with scratch buffers: zero allocation.
func (sc *scratch) DirectedDistance(x, y word.Word) (int, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	sc.loadDigits(x, y)
	return x.Len() - sc.ms.Overlap(sc.xd, sc.yd), nil
}

// UndirectedDistance is Theorem 2 via the O(k²) failure-function sweep
// (Algorithm 2's distance step) with scratch buffers: zero allocation.
func (sc *scratch) UndirectedDistance(x, y word.Word) (int, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	if x.Equal(y) {
		return 0, nil
	}
	sc.loadDigits(x, y)
	aL, aR := sc.anchorsQuadratic(sc.xd, sc.yd)
	if aR.dist < aL.dist {
		return aR.dist, nil
	}
	return aL.dist, nil
}

// UndirectedDistanceLinear is Theorem 2 via the compact prefix tree
// (Algorithm 4's distance step) with scratch buffers: zero allocation.
func (sc *scratch) UndirectedDistanceLinear(x, y word.Word) (int, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	if x.Equal(y) {
		return 0, nil
	}
	sc.loadDigits(x, y)
	aL, aR, err := sc.treeAnchors(sc.xd, sc.yd)
	if err != nil {
		return 0, err
	}
	if aR.dist < aL.dist {
		return aR.dist, nil
	}
	return aL.dist, nil
}

// RouteUndirected is Algorithm 2 with scratch buffers; only the
// returned path is allocated (exactly sized from the anchor distance).
func (sc *scratch) RouteUndirected(x, y word.Word) (Path, error) {
	if err := validatePair(x, y); err != nil {
		return nil, err
	}
	if x.Equal(y) {
		return Path{}, nil
	}
	sc.loadDigits(x, y)
	aL, aR := sc.anchorsQuadratic(sc.xd, sc.yd)
	return buildUndirectedPath(sc.yd, aL, aR), nil
}

// RouteUndirectedLinear is Algorithm 4 with scratch buffers; only the
// returned path is allocated.
func (sc *scratch) RouteUndirectedLinear(x, y word.Word) (Path, error) {
	if err := validatePair(x, y); err != nil {
		return nil, err
	}
	if x.Equal(y) {
		return Path{}, nil
	}
	sc.loadDigits(x, y)
	aL, aR, err := sc.treeAnchors(sc.xd, sc.yd)
	if err != nil {
		return nil, err
	}
	return buildUndirectedPath(sc.yd, aL, aR), nil
}

// anchorsQuadratic computes both Theorem 2 anchors with the O(k²)
// sweep, in bestLQuadratic/bestRQuadratic's exact minimization order
// (i ascending, then j ascending, strict improvement) so anchors — and
// therefore constructed paths — are byte-identical to the one-shot
// API's.
func (sc *scratch) anchorsQuadratic(xd, yd []byte) (aL, aR anchor) {
	return bestLWith(&sc.ms, xd, yd), bestRWith(&sc.ms, xd, yd)
}

// treeAnchors is treeAnchorsPointer on the arena tree: one iterative
// post-order walk of the compact prefix tree of S = X⊥Y⊤ computing
// subtree extrema and the two minimizing anchors. Candidates compare
// on (dist, s, t) — θ follows from the three — so the winner is the
// quadratic sweep's first minimizer whatever the visiting order: the
// sweep's (i₀, j₀) is the (minX, maxY+D−1) candidate at the lowest
// common ancestor of its two leaves. O(k) time, zero allocation once
// the scratch is warm.
func (sc *scratch) treeAnchors(x, y []byte) (aL, aR anchor, err error) {
	k := len(x)
	sc.sbuf = append(sc.sbuf[:0], x...)
	sc.sbuf = append(sc.sbuf, markBot)
	sc.sbuf = append(sc.sbuf, y...)
	sc.sbuf = append(sc.sbuf, markTop)
	tree, err := sc.ts.Build(sc.sbuf)
	if err != nil {
		return anchor{}, anchor{}, fmt.Errorf("core: building prefix tree: %w", err)
	}
	nodes := tree.Nodes
	if cap(sc.ext) < len(nodes) {
		sc.ext = make([]extrema, len(nodes))
	}
	ext := sc.ext[:len(nodes)]

	const inf = 1 << 30
	aL = anchor{dist: inf}
	aR = anchor{dist: inf}

	ext[suffixtree.RootID] = extrema{minX: inf, minY: inf}
	sc.frames = append(sc.frames[:0], aframe{suffixtree.RootID, nodes[suffixtree.RootID].FirstChild})
	for len(sc.frames) > 0 {
		f := &sc.frames[len(sc.frames)-1]
		if f.child != suffixtree.NoANode {
			c := f.child
			n := &nodes[c]
			f.child = n.NextSibling
			if n.IsLeaf() {
				e := extrema{minX: inf, minY: inf}
				pos := int(n.LeafPos)
				switch {
				case pos < k: // inside X
					e.minX, e.maxX = pos+1, pos+1
				case pos >= k+1 && pos < 2*k+1: // inside Y
					e.minY, e.maxY = pos-k, pos-k
				}
				mergeExtrema(&ext[f.id], e)
				continue
			}
			ext[c] = extrema{minX: inf, minY: inf}
			sc.frames = append(sc.frames, aframe{c, n.FirstChild})
			continue
		}
		// Children exhausted: candidate check, then fold into parent.
		id := f.id
		e := ext[id]
		if depth := int(nodes[id].Depth); depth >= 1 && e.minX < inf && e.maxY > 0 {
			// l-part candidate: i = minX, j = maxY + D - 1, θ = D.
			if d := 2*k - 1 + e.minX - e.maxY - 2*depth + 1; d <= aL.dist {
				if c := (anchor{s: e.minX, t: e.maxY + depth - 1, theta: depth, dist: d}); d < aL.dist || c.before(aL) {
					aL = c
				}
			}
			// r-part candidate: i = maxX + D - 1, j = minY, θ = D.
			if d := 2*k - 1 + e.minY - e.maxX - 2*depth + 1; d <= aR.dist {
				if c := (anchor{s: e.maxX + depth - 1, t: e.minY, theta: depth, dist: d}); d < aR.dist || c.before(aR) {
					aR = c
				}
			}
		}
		sc.frames = sc.frames[:len(sc.frames)-1]
		if len(sc.frames) > 0 {
			mergeExtrema(&ext[sc.frames[len(sc.frames)-1].id], e)
		}
	}
	if aL.dist > k {
		aL = anchor{dist: k} // trivial-path sentinel (line 5)
	}
	if aR.dist > k {
		aR = anchor{dist: k}
	}
	return aL, aR, nil
}

func mergeExtrema(dst *extrema, e extrema) {
	if e.minX < dst.minX {
		dst.minX = e.minX
	}
	if e.maxX > dst.maxX {
		dst.maxX = e.maxX
	}
	if e.minY < dst.minY {
		dst.minY = e.minY
	}
	if e.maxY > dst.maxY {
		dst.maxY = e.maxY
	}
}
