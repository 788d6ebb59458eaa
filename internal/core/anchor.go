package core

import (
	"bytes"
	"fmt"
)

// Anchor is the compact form of a canonical route: what the paper's
// route-building lines read besides the destination's digits. Lines
// 5–9 of Algorithm 2 build the whole path from Y and the minimizing
// anchor, so a route is the line that builds it plus that anchor's
// (s, t, θ):
//
//	Line 6: the trivial directed path (0,y_1) ... (0,y_k);
//	Line 8: s, t, θ = l_{s,t}(X,Y) of the l-part minimizer;
//	Line 9: s, t, θ = r_{s,t}(X,Y) of the r-part minimizer.
//
// Algorithm 1's path is Y's digits after the overlap l = k − distance;
// its anchor is Line 1 with L = l. Coordinates are 1-based, as in the
// paper. AppendRoute expands an anchor into hops; Hops checks one that
// came from outside the package.
type Anchor struct {
	Line  int `json:"line"`
	L     int `json:"l,omitempty"`
	S     int `json:"s,omitempty"`
	T     int `json:"t,omitempty"`
	Theta int `json:"theta,omitempty"`
}

// anchorOf picks lines 5–9 of Algorithm 2 from the two minimizing
// anchors: line 6 when neither beats the trivial k-hop path (tree
// anchors may report k as a saturated sentinel, hence ≥), else the
// smaller side, the l-part on ties.
func anchorOf(k int, aL, aR anchor) Anchor {
	switch {
	case aL.dist >= k && aR.dist >= k:
		return Anchor{Line: 6}
	case aL.dist <= aR.dist:
		return Anchor{Line: 8, S: aL.s, T: aL.t, Theta: aL.theta}
	default:
		return Anchor{Line: 9, S: aR.s, T: aR.t, Theta: aR.theta}
	}
}

// hops is the length of a's path toward a length-k destination, for
// an anchor already known to be in range.
func (a Anchor) hops(k int) int {
	switch a.Line {
	case 1:
		return k - a.L
	case 8:
		return 2*k - 1 + a.S - a.T - a.Theta
	case 9:
		return 2*k - 1 - a.S + a.T - a.Theta
	default:
		return k
	}
}

// Hops returns the number of hops a expands to toward a destination of
// length k, and false when a is no anchor the routing algorithms
// produce for such a destination: a line other than 1, 6, 8 or 9, a
// coordinate the line does not read set, 1 ≤ s, t ≤ k or the matching
// bound θ ≤ min(t, k−s+1) (line 8) or θ ≤ min(s, k−t+1) (line 9)
// broken, 0 ≤ l ≤ k broken, or a line-8/9 path of k hops or more,
// where line 6 would have been chosen. AppendRoute may panic on an
// anchor Hops rejects.
func (a Anchor) Hops(k int) (int, bool) {
	if k < 1 {
		return 0, false
	}
	ok := false
	switch a.Line {
	case 1:
		ok = a.S == 0 && a.T == 0 && a.Theta == 0 && 0 <= a.L && a.L <= k
	case 6:
		ok = a == Anchor{Line: 6}
	case 8, 9:
		bound := min(a.T, k-a.S+1)
		if a.Line == 9 {
			bound = min(a.S, k-a.T+1)
		}
		ok = a.L == 0 && 1 <= a.S && a.S <= k && 1 <= a.T && a.T <= k &&
			0 <= a.Theta && a.Theta <= bound && a.hops(k) < k
	}
	if !ok {
		return 0, false
	}
	return a.hops(k), true
}

// Joins reports whether the path of a, an anchor Hops accepts for
// k = len(y), leads from the vertex with digits x (len(x) = k) to the
// one with digits y: whether the digits of x the path keeps are the
// ones of y it lands on — θ of them, x_s..x_{s+θ-1} = y_{t-θ+1}..y_t
// on line 8 and x_{s-θ+1}..x_s = y_t..y_{t+θ-1} on line 9 (the matches
// l_{s,t} and r_{s,t} measure), and Algorithm 1's overlap of l on
// line 1. The minimizing anchor of every pair joins it; a path that
// joins is a walk from x to y, if not necessarily a shortest one.
func (a Anchor) Joins(x, y []byte) bool {
	k := len(y)
	switch a.Line {
	case 1:
		return bytes.Equal(x[k-a.L:], y[:a.L])
	case 8:
		return bytes.Equal(x[a.S-1:a.S-1+a.Theta], y[a.T-a.Theta:a.T])
	case 9:
		return bytes.Equal(x[a.S-a.Theta:a.S], y[a.T-1:a.T-1+a.Theta])
	}
	return true
}

// AppendRoute appends the path anchor a builds toward the destination
// whose digits y_1, ..., y_k are y (word.Word.AppendDigits) and
// returns the extended path. It is the one construction of every
// canonical route: Algorithm 1's, each line of Algorithm 2's, and the
// client side of a route answer sent as its anchor. Wildcard positions
// are emitted as (a,*) hops.
func AppendRoute(p Path, y []byte, a Anchor) Path {
	k := len(y)
	s, t, th := a.S, a.T, a.Theta
	switch a.Line {
	case 1:
		// Algorithm 1: y_{l+1}, ..., y_k applied as left shifts.
		for _, b := range y[a.L:] {
			p = append(p, L(b))
		}
	case 8:
		// s-1 arbitrary left shifts; right shifts inserting
		// y_{t-θ}, ..., y_1 then k-t arbitrary digits; left shifts
		// appending y_{t+1}, ..., y_k.
		for i := 0; i < s-1; i++ {
			p = append(p, LStar())
		}
		for j := t - th; j >= 1; j-- {
			p = append(p, R(y[j-1]))
		}
		for i := 0; i < k-t; i++ {
			p = append(p, RStar())
		}
		for _, b := range y[t:] {
			p = append(p, L(b))
		}
	case 9:
		// k-s arbitrary right shifts; left shifts appending
		// y_{t+θ}, ..., y_k then t-1 arbitrary digits; right shifts
		// inserting y_{t-1}, ..., y_1.
		for i := 0; i < k-s; i++ {
			p = append(p, RStar())
		}
		for _, b := range y[t+th-1:] {
			p = append(p, L(b))
		}
		for i := 0; i < t-1; i++ {
			p = append(p, LStar())
		}
		for j := t - 1; j >= 1; j-- {
			p = append(p, R(y[j-1]))
		}
	case 6:
		// The trivial directed path (0,y_1)...(0,y_k).
		for _, b := range y {
			p = append(p, L(b))
		}
	default:
		panic(fmt.Sprintf("core: AppendRoute of an anchor on line %d", a.Line))
	}
	return p
}
