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
	l := match.Overlap(rawDigits(x), rawDigits(y))
	k := y.Len()
	p := make(Path, 0, k-l)
	for j := l; j < k; j++ {
		p = append(p, L(y.Digit(j)))
	}
	return p, nil
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

// undirectedPathLen returns the exact hop count buildUndirectedPath
// will produce for the given anchors — the distance bound (≤ 2k-1)
// known before construction, used to size the path in one allocation.
func undirectedPathLen(k int, aL, aR anchor) int {
	if aL.dist >= k && aR.dist >= k {
		return k
	}
	if aL.dist <= aR.dist {
		return aL.dist
	}
	return aR.dist
}

// buildUndirectedPath realizes lines 5–9 of Algorithm 2 from the two
// minimizing anchors, allocating the path exactly once at its known
// final length. All anchor coordinates are 1-based, matching the
// paper.
func buildUndirectedPath(y word.Word, aL, aR anchor) Path {
	return appendUndirectedPath(make(Path, 0, undirectedPathLen(y.Len(), aL, aR)), y, aL, aR)
}

// appendUndirectedPath appends the Algorithm 2 path to p and returns
// it — the construction kernel shared by the one-shot builders (which
// hand it an exactly-sized fresh path) and the scratch next-hop query
// (which hands it a reused hop buffer).
func appendUndirectedPath(p Path, y word.Word, aL, aR anchor) Path {
	k := y.Len()
	d1, d2 := aL.dist, aR.dist
	if d1 >= k && d2 >= k {
		// Line 6: the trivial directed path (0,y_1)...(0,y_k).
		// (Both minima are ≤ k whenever anchors come from full-range
		// minimization; linear-tree anchors may report k as a
		// saturated sentinel, hence ≥.)
		for j := 0; j < k; j++ {
			p = append(p, L(y.Digit(j)))
		}
		return p
	}
	if d1 <= d2 {
		return appendLine8(p, y, aL)
	}
	return appendLine9(p, y, aR)
}

// appendLine8 realizes line 8 of Algorithm 2: s-1 arbitrary left
// shifts; right shifts inserting y_{t-θ}, ..., y_1 then k-t arbitrary
// digits; left shifts appending y_{t+1}, ..., y_k.
func appendLine8(p Path, y word.Word, a anchor) Path {
	k := y.Len()
	s, t, th := a.s, a.t, a.theta
	for i := 0; i < s-1; i++ {
		p = append(p, LStar())
	}
	for j := t - th; j >= 1; j-- {
		p = append(p, R(y.Digit(j-1)))
	}
	for i := 0; i < k-t; i++ {
		p = append(p, RStar())
	}
	for j := t + 1; j <= k; j++ {
		p = append(p, L(y.Digit(j-1)))
	}
	return p
}

// appendLine9 realizes line 9 of Algorithm 2: k-s arbitrary right
// shifts; left shifts appending y_{t+θ}, ..., y_k then t-1 arbitrary
// digits; right shifts inserting y_{t-1}, ..., y_1.
func appendLine9(p Path, y word.Word, a anchor) Path {
	k := y.Len()
	s, t, th := a.s, a.t, a.theta
	for i := 0; i < k-s; i++ {
		p = append(p, RStar())
	}
	for j := t + th; j <= k; j++ {
		p = append(p, L(y.Digit(j-1)))
	}
	for i := 0; i < t-1; i++ {
		p = append(p, LStar())
	}
	for j := t - 1; j >= 1; j-- {
		p = append(p, R(y.Digit(j-1)))
	}
	return p
}
