package core

import (
	"repro/internal/match"
	"repro/internal/word"
)

// RouteDirected is Algorithm 1: a shortest routing path from X to Y in
// the uni-directional de Bruijn network DN(d,k). The path is the digit
// sequence y_{l+1}, ..., y_k applied as left shifts, where l is the
// longest suffix-of-X/prefix-of-Y overlap; O(k) time and space.
func RouteDirected(x, y word.Word) (Path, error) {
	if err := validatePair(x, y); err != nil {
		return nil, err
	}
	if x.Equal(y) {
		return Path{}, nil
	}
	yd := rawDigits(y)
	l := match.Overlap(rawDigits(x), yd)
	return AppendRoute(make(Path, 0, len(yd)-l), yd, Anchor{Line: 1, L: l}), nil
}

// RouteUndirected is Algorithm 2: a shortest routing path from X to Y
// in the bi-directional de Bruijn network DN(d,k), computed with the
// failure-function machinery of Algorithm 3 in O(k²) time and O(k)
// space. Arbitrary-digit positions are emitted as wildcard hops
// ((a,*) in the paper's remark); resolve them with Path.Concrete or a
// Chooser when applying.
func RouteUndirected(x, y word.Word) (Path, error) {
	sc := getScratch()
	p, err := sc.RouteUndirected(x, y)
	putScratch(sc)
	return p, err
}

// sameAnchor is the anchor of the empty path from a vertex to itself:
// the first minimizer of Theorem 2's sweep when X = Y is the l-part's
// s = 1, t = k with θ = l_{1,k} = k, worth 2k-1+1-k-k = 0 hops.
func sameAnchor(k int) Anchor { return Anchor{Line: 8, S: 1, T: k, Theta: k} }

// buildUndirectedPath realizes lines 5–9 of Algorithm 2 from the two
// minimizing anchors and y's digits, allocating the path exactly once
// at its known final length.
func buildUndirectedPath(y []byte, aL, aR anchor) Path {
	a := anchorOf(len(y), aL, aR)
	return AppendRoute(make(Path, 0, a.hops(len(y))), y, a)
}
