package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/word"
)

// TestRouteAnchorExpands checks, on every ordered pair of small graphs
// and on every tier, that RouteAnchor is an anchor Hops accepts, that
// its hop count is the distance, and that AppendRoute expands it to
// Algorithm 2's path hop for hop; and that RouteAnchorDirected does
// the same for Algorithm 1.
func TestRouteAnchorExpands(t *testing.T) {
	engines := map[string]*Kernels{
		"packed": NewKernels(KernelConfig{TableBudget: -1}),
		"table":  NewKernels(KernelConfig{SyncTableBuild: true}),
	}
	for _, g := range []struct{ d, k int }{{2, 1}, {2, 4}, {2, 6}, {3, 3}, {4, 2}, {5, 2}} {
		if _, err := word.ForEach(g.d, g.k, func(x word.Word) bool {
			_, err := word.ForEach(g.d, g.k, func(y word.Word) bool {
				yd := y.Digits()
				wantU, _ := RouteUndirected(x, y)
				wantD, _ := RouteDirected(x, y)
				for name, kn := range engines {
					for _, c := range []struct {
						route func(x, y word.Word) (Anchor, error)
						want  Path
					}{{kn.RouteAnchor, wantU}, {kn.RouteAnchorDirected, wantD}} {
						a, err := c.route(x, y)
						if err != nil {
							t.Fatalf("%s: anchor %v->%v: %v", name, x, y, err)
						}
						if n, ok := a.Hops(g.k); !ok || n != len(c.want) {
							t.Fatalf("%s: anchor %+v of %v->%v: Hops = %d,%v want %d", name, a, x, y, n, ok, len(c.want))
						}
						if !a.Joins(x.Digits(), yd) {
							t.Fatalf("%s: anchor %+v of %v->%v does not join them", name, a, x, y)
						}
						if got := AppendRoute(nil, yd, a); !slices.Equal(got, c.want) {
							t.Fatalf("%s: AppendRoute(%v, %+v) = %v want %v", name, y, a, got, c.want)
						}
					}
				}
				return true
			})
			return err == nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAnchorHopsRejects pins Hops' range checks: each anchor below is
// out of range for k = 5 and would expand to the wrong number of hops
// or index past the destination.
func TestAnchorHopsRejects(t *testing.T) {
	const k = 5
	for _, a := range []Anchor{
		{},
		{Line: 2},
		{Line: 7, S: 1, T: 1},
		{Line: 1, L: -1},
		{Line: 1, L: k + 1},
		{Line: 1, L: 2, S: 1},
		{Line: 6, S: 1},
		{Line: 6, L: 1},
		{Line: 8, S: 0, T: 3, Theta: 1},
		{Line: 8, S: 1, T: k + 1, Theta: 1},
		{Line: 8, S: 2, T: 3, Theta: -1},
		{Line: 8, S: 2, T: 3, Theta: 4},           // θ > t
		{Line: 8, S: 4, T: 5, Theta: 3},           // θ > k-s+1
		{Line: 8, S: 3, T: 2, Theta: 0},           // 2k-1+1 = 10 hops ≥ k
		{Line: 8, S: 1, T: 3, Theta: 1, L: 1},     // l set on line 8
		{Line: 9, S: 3, T: 4, Theta: 4},           // θ > s
		{Line: 9, S: 5, T: 4, Theta: 3},           // θ > k-t+1
		{Line: 9, S: 1, T: 1, Theta: 1},           // 2k-1-1+1-1 = 8 hops ≥ k
		{Line: 9, S: math.MaxInt, T: 1, Theta: 1}, // s past k
		{Line: 8, S: 1, T: math.MinInt, Theta: 1},
	} {
		if n, ok := a.Hops(k); ok {
			t.Errorf("Hops(%d) accepted %+v (%d hops)", k, a, n)
		}
	}
	if _, ok := (Anchor{Line: 6}).Hops(0); ok {
		t.Error("Hops(0) accepted line 6")
	}
	for _, c := range []struct {
		a    Anchor
		hops int
	}{
		{Anchor{Line: 6}, k},
		{Anchor{Line: 1, L: k}, 0},
		{Anchor{Line: 1}, k},
		{sameAnchor(k), 0},
		{Anchor{Line: 8, S: 1, T: 4, Theta: 2}, 4},
		{Anchor{Line: 9, S: 4, T: 1, Theta: 2}, 4},
	} {
		if n, ok := c.a.Hops(k); !ok || n != c.hops {
			t.Errorf("Hops(%d) of %+v = %d,%v want %d", k, c.a, n, ok, c.hops)
		}
	}
}

// TestAnchorJoins checks Joins against the walk itself: for every pair
// of DG(2,4) and DG(3,3) and every anchor Hops accepts, the expanded
// path, its wildcards resolved to digit 0, ends at y exactly when Joins
// says so.
func TestAnchorJoins(t *testing.T) {
	for _, g := range []struct{ d, k int }{{2, 4}, {3, 3}} {
		var anchors []Anchor
		for line := 0; line <= 10; line++ {
			for l := 0; l <= g.k+1; l++ {
				for s := 0; s <= g.k+1; s++ {
					for tt := 0; tt <= g.k+1; tt++ {
						for th := 0; th <= g.k+1; th++ {
							a := Anchor{Line: line, L: l, S: s, T: tt, Theta: th}
							if _, ok := a.Hops(g.k); ok {
								anchors = append(anchors, a)
							}
						}
					}
				}
			}
		}
		joined := 0
		word.ForEach(g.d, g.k, func(x word.Word) bool {
			word.ForEach(g.d, g.k, func(y word.Word) bool {
				xd, yd := x.Digits(), y.Digits()
				for _, a := range anchors {
					end, err := AppendRoute(nil, yd, a).Apply(x, FirstDigit)
					if err != nil {
						t.Fatalf("walk of %+v from %v: %v", a, x, err)
					}
					if got, want := a.Joins(xd, yd), end.Equal(y); got != want {
						t.Fatalf("%+v: Joins(%v, %v) = %v, walk ends at %v", a, x, y, got, end)
					}
					if end.Equal(y) {
						joined++
					}
				}
				return true
			})
			return true
		})
		if joined == 0 {
			t.Fatalf("DG(%d,%d): no anchor joined any pair", g.d, g.k)
		}
	}
}
