package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/word"
)

// The engines resolve wildcard hops with three choosers: digit 0
// (network.PolicyFirst), a seeded uniform digit
// (network.PolicyRandom), and a load-dependent digit (network.PolicyLeastLoaded) that can be any
// value in [0, d). The paper's remark permits this freedom only
// because every resolution yields a shortest path; the tests below
// pin that directly at the Chooser level.

// TestChooserTableKeepsShortest walks table pairs whose Algorithm 2
// and Algorithm 4 paths contain LStar/RStar hops, resolves them with
// each engine-equivalent chooser, and requires the walk to end at Y
// after exactly D(X,Y) real link crossings.
func TestChooserTableKeepsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		d    int
		x, y string
	}{
		// Wildcards of both star types, both algorithms (comments show
		// the emitted Algorithm 2 path).
		{2, "00000", "01001"},   // {(1,1),(1,0),(1,*),(0,1)}
		{2, "00000", "10011"},   // {(0,1),(0,1),(0,*),(1,1)}
		{2, "00001", "10001"},   // {(0,*),(1,1)}
		{2, "000000", "011001"}, // {(1,1),(1,1),(1,0),(1,*),(0,1)}
		{3, "0000", "2001"},     // {(1,2),(1,*),(0,1)}
		{3, "0001", "2001"},     // {(0,*),(1,2)}
		{4, "0000", "1003"},     // {(1,1),(1,*),(0,3)}
		{4, "0001", "2001"},     // {(0,*),(1,2)}
	} {
		x := mustParse(t, tc.d, tc.x)
		y := mustParse(t, tc.d, tc.y)
		want, err := UndirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.DeBruijn(graph.Undirected, tc.d, x.Len())
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range []struct {
			alg string
			fn  func(word.Word, word.Word) (Path, error)
		}{
			{"alg2", RouteUndirected},
			{"alg4", RouteUndirectedLinear},
		} {
			p, err := route.fn(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if !p.HasWildcard() {
				t.Fatalf("%s %v→%v: table pair has no wildcard hop; pick another pair", route.alg, x, y)
			}
			if len(p) != want {
				t.Fatalf("%s %v→%v: %d hops, want %d", route.alg, x, y, len(p), want)
			}
			for _, ch := range []struct {
				name   string
				choose Chooser
			}{
				{"first-digit", FirstDigit},
				{"max-digit", func(int, word.Word, Hop) byte { return byte(tc.d - 1) }},
				{"position-varying", func(i int, _ word.Word, _ Hop) byte { return byte(i % tc.d) }},
				{"seeded-random", func(int, word.Word, Hop) byte { return byte(rng.Intn(tc.d)) }},
			} {
				walkShortest(t, g, route.alg+"/"+ch.name, x, y, p, ch.choose, want)
			}
		}
	}
}

// TestChooserEveryDigitKeepsShortest goes further than the named
// choosers: on small graphs every per-wildcard digit assignment is a
// valid resolution, exhaustively — the freedom the remark grants is
// total, not just for the resolutions the engines happen to use.
func TestChooserEveryDigitKeepsShortest(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{2, 4}, {3, 3}} {
		g, err := graph.DeBruijn(graph.Undirected, tc.d, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := word.ForEach(tc.d, tc.k, func(x word.Word) bool {
			_, err := word.ForEach(tc.d, tc.k, func(y word.Word) bool {
				p, err := RouteUndirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				wilds := 0
				for _, h := range p {
					if h.Wildcard {
						wilds++
					}
				}
				if wilds == 0 || wilds > 4 {
					return true // nothing to resolve / too many to enumerate
				}
				want, err := UndirectedDistance(x, y)
				if err != nil {
					t.Fatal(err)
				}
				combos := 1
				for i := 0; i < wilds; i++ {
					combos *= tc.d
				}
				for c := 0; c < combos; c++ {
					digits := make([]byte, 0, wilds)
					for v := c; len(digits) < wilds; v /= tc.d {
						digits = append(digits, byte(v%tc.d))
					}
					next := 0
					choose := func(int, word.Word, Hop) byte {
						b := digits[next]
						next++
						return b
					}
					walkShortest(t, g, "exhaustive", x, y, p, choose, want)
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
	}
}

// walkShortest applies p from x under choose and asserts the walk
// crosses only real links of g and ends at y after exactly want hops.
func walkShortest(t *testing.T, g *graph.Graph, how string, x, y word.Word, p Path, choose Chooser, want int) {
	t.Helper()
	if len(p) != want {
		t.Errorf("%s %v→%v: %d hops, want %d", how, x, y, len(p), want)
		return
	}
	cur := x
	for i, h := range p {
		digit := h.Digit
		if h.Wildcard {
			digit = choose(i, cur, h)
		}
		var next word.Word
		if h.Type == TypeL {
			next = cur.ShiftLeft(digit)
		} else {
			next = cur.ShiftRight(digit)
		}
		if !g.HasEdge(graph.DeBruijnVertex(cur), graph.DeBruijnVertex(next)) {
			t.Errorf("%s %v→%v: hop %d crosses %v→%v, not a link", how, x, y, i, cur, next)
			return
		}
		cur = next
	}
	if !cur.Equal(y) {
		t.Errorf("%s %v→%v: walk ends at %v", how, x, y, cur)
	}
}
