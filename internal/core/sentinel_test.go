package core

import (
	"slices"
	"testing"

	"repro/internal/word"
)

// The linear-tree anchor search excludes θ=0 candidates (the tree
// minimization only visits nodes of depth ≥ 1), so when X and Y share
// no common substring the anchors come back as the saturated sentinel
// anchor{dist: k} and buildUndirectedPath takes the line-6 trivial
// path. The tests below audit that branch: the sentinel can never
// shadow a genuinely shorter line-8/line-9 path, because a θ=0
// candidate's best value is exactly k (i=1, j=k in 2k-1+i-j-θ) —
// anything shorter needs θ ≥ 1 and is therefore visible to the tree.

// TestTreeAnchorsMatchQuadratic pins the per-side equality
// treeAnchors.dist == bestL/RQuadratic.dist on every pair of every
// small graph, k ≤ 2 and d ≥ 2 edge cases included. The quadratic
// side minimizes over the full range including θ=0, so equality is
// exactly the no-shadowing property. Below the sentinel the two
// searches also pick the same anchor — the tree breaks ties on
// (dist, s, t) like the sweep's row-major scan — so Algorithms 2 and
// 4 build the same path on every pair.
func TestTreeAnchorsMatchQuadratic(t *testing.T) {
	for _, tc := range []struct{ d, k int }{
		{2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {5, 2}, {7, 2},
		{2, 3}, {2, 4}, {2, 5}, {2, 6}, {3, 3}, {3, 4}, {4, 3}, {5, 3},
	} {
		sc := new(scratch)
		sentinels := 0
		if _, err := word.ForEach(tc.d, tc.k, func(x word.Word) bool {
			_, err := word.ForEach(tc.d, tc.k, func(y word.Word) bool {
				if x.Equal(y) {
					return true
				}
				xd, yd := rawDigits(x), rawDigits(y)
				qL, qR := bestLQuadratic(xd, yd), bestRQuadratic(xd, yd)
				tL, tR, err := sc.treeAnchors(xd, yd)
				if err != nil {
					t.Fatalf("treeAnchors(%v,%v): %v", x, y, err)
				}
				if tL.dist != qL.dist || tR.dist != qR.dist {
					t.Errorf("DG(%d,%d) %v→%v: tree anchors (%d,%d), quadratic (%d,%d)",
						tc.d, tc.k, x, y, tL.dist, tR.dist, qL.dist, qR.dist)
				}
				if qL.dist < tc.k && tL != qL || qR.dist < tc.k && tR != qR {
					t.Errorf("DG(%d,%d) %v→%v: tree anchors (%+v,%+v), quadratic (%+v,%+v)",
						tc.d, tc.k, x, y, tL, tR, qL, qR)
				}
				p2, err := RouteUndirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				p4, err := RouteUndirectedLinear(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p4, p2) {
					t.Errorf("DG(%d,%d) %v→%v: Algorithm 4 path %v, Algorithm 2 path %v", tc.d, tc.k, x, y, p4, p2)
				}
				if tL.dist >= tc.k && tR.dist >= tc.k {
					sentinels++
					// The saturated branch must produce the trivial
					// path, and the true distance must be exactly k —
					// nothing shorter was shadowed.
					if qL.dist < tc.k || qR.dist < tc.k {
						t.Errorf("DG(%d,%d) %v→%v: sentinel shadows quadratic distance %d",
							tc.d, tc.k, x, y, min2(qL.dist, qR.dist))
					}
					p, err := RouteUndirectedLinear(x, y)
					if err != nil {
						t.Fatal(err)
					}
					if len(p) != tc.k || !p.OnlyLeftShifts() || p.HasWildcard() {
						t.Errorf("DG(%d,%d) %v→%v: saturated branch built %v, want the trivial %d-hop directed path",
							tc.d, tc.k, x, y, p, tc.k)
					}
					if got, err := p.Apply(x, nil); err != nil || !got.Equal(y) {
						t.Errorf("DG(%d,%d) %v→%v: trivial path ends at %v (%v)", tc.d, tc.k, x, y, got, err)
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if tc.k <= 2 && sentinels == 0 {
			t.Errorf("DG(%d,%d): no sentinel pair exercised; the audit needs the branch to fire", tc.d, tc.k)
		}
	}
}

// TestSaturatedSentinelTable pins concrete sentinel cases: pairs with
// no common substring, where both tree anchors saturate and line 6
// must emit the trivial path whose length equals Theorem 2's distance.
func TestSaturatedSentinelTable(t *testing.T) {
	for _, tc := range []struct {
		d    int
		x, y string
	}{
		{2, "0", "1"},     // k=1: no depth-1 match possible between distinct words
		{2, "00", "11"},   // k=2: disjoint digit sets
		{3, "00", "12"},   // k=2, d=3
		{3, "01", "22"},   // k=2, mixed
		{4, "012", "333"}, // k=3, d=4
	} {
		x := mustParse(t, tc.d, tc.x)
		y := mustParse(t, tc.d, tc.y)
		k := x.Len()
		aL, aR, err := new(scratch).treeAnchors(rawDigits(x), rawDigits(y))
		if err != nil {
			t.Fatal(err)
		}
		if aL != (anchor{dist: k}) || aR != (anchor{dist: k}) {
			t.Errorf("%v→%v: anchors (%+v, %+v), want saturated sentinels {dist:%d}", x, y, aL, aR, k)
		}
		want, err := UndirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if want != k {
			t.Fatalf("%v→%v: Theorem 2 distance %d, table expects a saturated case (= %d)", x, y, want, k)
		}
		p, err := RouteUndirectedLinear(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != k {
			t.Errorf("%v→%v: path %v has %d hops, want %d", x, y, p, len(p), k)
		}
		if got, err := p.Apply(x, nil); err != nil || !got.Equal(y) {
			t.Errorf("%v→%v: path ends at %v (%v)", x, y, got, err)
		}
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func mustParse(t *testing.T, d int, s string) word.Word {
	t.Helper()
	w, err := word.Parse(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
