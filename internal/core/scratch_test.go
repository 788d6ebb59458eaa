package core

import (
	"math/rand"
	"testing"

	"repro/internal/word"
)

// TestScratchEquivalence pins every scratch method to its one-shot
// sibling — byte-identical paths and equal distances — across
// seeded pairs on every DG(d,k) with at most 4096 vertices, reusing
// ONE scratch throughout so cross-query buffer contamination would
// surface.
func TestScratchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	sc := new(scratch)
	for d := 2; d <= 6; d++ {
		for k := 1; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > 4096 {
				break
			}
			pairs := 40
			if n*n < pairs {
				pairs = n * n
			}
			for p := 0; p < pairs; p++ {
				x := word.Random(d, k, rng)
				y := word.Random(d, k, rng)

				if got, _ := sc.DirectedDistance(x, y); true {
					want, _ := DirectedDistance(x, y)
					if got != want {
						t.Fatalf("scratch.DirectedDistance(%v,%v) = %d, want %d", x, y, got, want)
					}
				}
				if got, _ := sc.UndirectedDistance(x, y); true {
					want, _ := UndirectedDistance(x, y)
					if got != want {
						t.Fatalf("scratch.UndirectedDistance(%v,%v) = %d, want %d", x, y, got, want)
					}
				}
				if got, _ := sc.UndirectedDistanceLinear(x, y); true {
					want, _ := UndirectedDistanceLinear(x, y)
					if got != want {
						t.Fatalf("scratch.UndirectedDistanceLinear(%v,%v) = %d, want %d", x, y, got, want)
					}
				}
				gp, err := sc.RouteUndirected(x, y)
				if err != nil {
					t.Fatalf("scratch.RouteUndirected(%v,%v): %v", x, y, err)
				}
				wp, _ := RouteUndirected(x, y)
				if gp.String() != wp.String() {
					t.Fatalf("scratch.RouteUndirected(%v,%v) = %v, want %v", x, y, gp, wp)
				}
				gp, err = sc.RouteUndirectedLinear(x, y)
				if err != nil {
					t.Fatalf("scratch.RouteUndirectedLinear(%v,%v): %v", x, y, err)
				}
				wp, _ = RouteUndirectedLinear(x, y)
				if gp.String() != wp.String() {
					t.Fatalf("scratch.RouteUndirectedLinear(%v,%v) = %v, want %v", x, y, gp, wp)
				}
			}
		}
	}
}

// TestTreeAnchorsMatchesPointerWalk pins the arena tree walk to the
// recursive pointer-tree reference anchor-for-anchor (not just
// distance-for-distance): same s, t, θ on every pair of two exhaustive
// small graphs plus larger random words. This is the determinism
// contract that keeps Algorithm 4 paths byte-identical across the
// scratch refactor.
func TestTreeAnchorsMatchesPointerWalk(t *testing.T) {
	sc := new(scratch)
	checkPair := func(xd, yd []byte) {
		t.Helper()
		gL, gR, err := sc.treeAnchors(xd, yd)
		if err != nil {
			t.Fatalf("scratch treeAnchors(%v,%v): %v", xd, yd, err)
		}
		wL, wR, err := treeAnchorsPointer(xd, yd)
		if err != nil {
			t.Fatalf("treeAnchorsPointer(%v,%v): %v", xd, yd, err)
		}
		if gL != wL || gR != wR {
			t.Fatalf("treeAnchors(%v,%v) = (%+v,%+v), pointer walk (%+v,%+v)", xd, yd, gL, gR, wL, wR)
		}
	}
	for _, g := range []struct{ d, k int }{{2, 4}, {3, 3}} {
		word.ForEach(g.d, g.k, func(x word.Word) bool {
			word.ForEach(g.d, g.k, func(y word.Word) bool {
				checkPair(x.Digits(), y.Digits())
				return true
			})
			return true
		})
	}
	rng := rand.New(rand.NewSource(92))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(4)
		k := 1 + rng.Intn(40)
		x, y := word.Random(d, k, rng), word.Random(d, k, rng)
		checkPair(x.Digits(), y.Digits())
	}
}

// TestOneShotAllocBudgets pins the allocation budgets the PR's perf
// work establishes: distance queries are allocation-free
// once the scratch pool is warm, and route construction allocates only
// the returned exactly-sized path.
func TestOneShotAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(93))
	for _, k := range []int{8, 64} {
		x, y := word.Random(2, k, rng), word.Random(2, k, rng)
		budgets := []struct {
			name string
			max  float64
			fn   func()
		}{
			{"DirectedDistance", 0, func() { DirectedDistance(x, y) }},
			{"UndirectedDistance", 0, func() { UndirectedDistance(x, y) }},
			{"UndirectedDistanceLinear", 0, func() { UndirectedDistanceLinear(x, y) }},
			{"RouteUndirected", 2, func() { RouteUndirected(x, y) }},
			{"RouteUndirectedLinear", 2, func() { RouteUndirectedLinear(x, y) }},
		}
		for _, b := range budgets {
			b.fn() // warm the pool
			if allocs := testing.AllocsPerRun(100, b.fn); allocs > b.max {
				t.Errorf("k=%d: %s allocates %v per run, want ≤ %v", k, b.name, allocs, b.max)
			}
		}
	}
}

// TestRouterRouteAllocBudget pins Router.Route at one allocation per
// query (the returned path) at both benchmark word lengths.
func TestRouterRouteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(94))
	for _, k := range []int{8, 64} {
		r := NewRouter(k)
		x, y := word.Random(2, k, rng), word.Random(2, k, rng)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := r.Route(x, y); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("k=%d: Router.Route allocates %v per run, want ≤ 1", k, allocs)
		}
	}
}
