package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/word"
)

func TestRouteDirectedExhaustive(t *testing.T) {
	// Algorithm 1: path length equals the BFS distance, the walk ends
	// at Y, and only left shifts are used.
	for _, dk := range smallCases {
		d, k := dk[0], dk[1]
		words := allWords(t, d, k)
		bfs := bfsAll(t, graph.Directed, d, k)
		for i, x := range words {
			for j, y := range words {
				p, err := RouteDirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if p.Len() != bfs[i][j] {
					t.Fatalf("DG(%d,%d): |P(%v,%v)| = %d, BFS = %d", d, k, x, y, p.Len(), bfs[i][j])
				}
				if !p.OnlyLeftShifts() {
					t.Fatalf("Algorithm 1 produced a right shift: %v", p)
				}
				if p.HasWildcard() {
					t.Fatalf("Algorithm 1 produced a wildcard: %v", p)
				}
				end, err := p.Apply(x, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !end.Equal(y) {
					t.Fatalf("walk of %v from %v ends at %v, want %v", p, x, end, y)
				}
			}
		}
	}
}

// checkUndirectedRoute validates one bi-directional route against the
// graph: correct length, lands on Y under adversarial wildcard
// resolution, and every hop crosses a real edge.
func checkUndirectedRoute(t *testing.T, g *graph.Graph, x, y word.Word, p Path, wantLen int, rng *rand.Rand) {
	t.Helper()
	if p.Len() != wantLen {
		t.Fatalf("|P(%v,%v)| = %d, want %d (path %v)", x, y, p.Len(), wantLen, p)
	}
	// Resolve wildcards three ways: zeros, random, max digit.
	choosers := []Chooser{
		nil,
		func(int, word.Word, Hop) byte { return byte(x.Base() - 1) },
		func(int, word.Word, Hop) byte { return byte(rng.Intn(x.Base())) },
	}
	for ci, choose := range choosers {
		conc, err := p.Concrete(x, choose)
		if err != nil {
			t.Fatal(err)
		}
		if conc.HasWildcard() {
			t.Fatal("Concrete left a wildcard")
		}
		cur := x
		for hi, h := range conc {
			next, err := Path{h}.Apply(cur, nil)
			if err != nil {
				t.Fatal(err)
			}
			u := graph.DeBruijnVertex(cur)
			v := graph.DeBruijnVertex(next)
			if u == v {
				t.Fatalf("chooser %d: hop %d of %v is a self loop at %v", ci, hi, conc, cur)
			}
			if !g.HasEdge(u, v) {
				t.Fatalf("chooser %d: hop %d of %v crosses a non-edge %v–%v", ci, hi, conc, cur, next)
			}
			cur = next
		}
		if !cur.Equal(y) {
			t.Fatalf("chooser %d: walk of %v from %v ends at %v, want %v", ci, conc, x, cur, y)
		}
	}
}

func TestRouteUndirectedExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dk := range smallCases {
		d, k := dk[0], dk[1]
		words := allWords(t, d, k)
		bfs := bfsAll(t, graph.Undirected, d, k)
		g, err := graph.DeBruijn(graph.Undirected, d, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range words {
			for j, y := range words {
				p, err := RouteUndirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				checkUndirectedRoute(t, g, x, y, p, bfs[i][j], rng)
			}
		}
	}
}

func TestRouteUndirectedLinearExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dk := range smallCases {
		d, k := dk[0], dk[1]
		words := allWords(t, d, k)
		bfs := bfsAll(t, graph.Undirected, d, k)
		g, err := graph.DeBruijn(graph.Undirected, d, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range words {
			for j, y := range words {
				p, err := RouteUndirectedLinear(x, y)
				if err != nil {
					t.Fatal(err)
				}
				checkUndirectedRoute(t, g, x, y, p, bfs[i][j], rng)
			}
		}
	}
}

func TestRouteUndirectedLargeKConsistency(t *testing.T) {
	// For k beyond exhaustive reach: both algorithms yield paths of
	// the same (Theorem 2) length that land on Y.
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 200; iter++ {
		d := 2 + rng.Intn(4)
		k := 1 + rng.Intn(48)
		x, y := word.Random(d, k, rng), word.Random(d, k, rng)
		want, err := UndirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for name, route := range map[string]func(a, b word.Word) (Path, error){
			"quadratic": RouteUndirected,
			"linear":    RouteUndirectedLinear,
		} {
			p, err := route(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if err := mustLen(p, want); err != nil {
				t.Fatalf("%s: %v for (%v,%v)", name, err, x, y)
			}
			end, err := p.Apply(x, func(int, word.Word, Hop) byte { return byte(rng.Intn(d)) })
			if err != nil {
				t.Fatal(err)
			}
			if !end.Equal(y) {
				t.Fatalf("%s: walk ends at %v, want %v", name, end, y)
			}
		}
	}
}

func TestRouteTrivialAndIdentity(t *testing.T) {
	x := word.MustParse(2, "0101")
	for name, route := range map[string]func(a, b word.Word) (Path, error){
		"directed":  RouteDirected,
		"quadratic": RouteUndirected,
		"linear":    RouteUndirectedLinear,
	} {
		p, err := route(x, x)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != 0 {
			t.Errorf("%s: route X→X has %d hops", name, p.Len())
		}
	}
	// 0000 → 1111 must be the trivial path of k left shifts.
	zeros := word.MustParse(2, "0000")
	ones := word.MustParse(2, "1111")
	p, err := RouteUndirected(zeros, ones)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || !p.OnlyLeftShifts() {
		t.Errorf("trivial route = %v", p)
	}
}

func TestRouteValidatesOperands(t *testing.T) {
	x := word.MustParse(2, "01")
	for name, route := range map[string]func(a, b word.Word) (Path, error){
		"directed":  RouteDirected,
		"quadratic": RouteUndirected,
		"linear":    RouteUndirectedLinear,
	} {
		if _, err := route(x, word.MustParse(3, "01")); err == nil {
			t.Errorf("%s accepted mixed bases", name)
		}
		if _, err := route(x, word.MustParse(2, "011")); err == nil {
			t.Errorf("%s accepted mixed lengths", name)
		}
	}
}

func TestPathApplyWildcardNeedsChooser(t *testing.T) {
	x := word.MustParse(2, "01")
	p := Path{LStar()}
	if _, err := p.Apply(x, nil); err == nil {
		t.Error("Apply resolved wildcard without chooser")
	}
	got, err := p.Apply(x, FirstDigit)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "10" {
		t.Errorf("Apply = %v", got)
	}
}

func TestPathApplyRejectsBadDigit(t *testing.T) {
	x := word.MustParse(2, "01")
	if _, err := (Path{L(2)}).Apply(x, nil); err == nil {
		t.Error("Apply accepted out-of-alphabet digit")
	}
	if _, err := (Path{LStar()}).Apply(x, func(int, word.Word, Hop) byte { return 5 }); err == nil {
		t.Error("Apply accepted chooser returning bad digit")
	}
	if _, err := (Path{{Type: HopType(7)}}).Apply(x, nil); err == nil {
		t.Error("Apply accepted invalid hop type")
	}
}

func TestPathString(t *testing.T) {
	p := Path{L(1), RStar(), R(0)}
	if got := p.String(); got != "{(0,1),(1,*),(1,0)}" {
		t.Errorf("String = %q", got)
	}
	if got := (Path{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestPathConcreteNilChooserUsesZero(t *testing.T) {
	x := word.MustParse(2, "01")
	conc, err := Path{RStar()}.Concrete(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if conc[0].Digit != 0 || conc[0].Wildcard {
		t.Errorf("Concrete = %v", conc)
	}
}

func mustLen(p Path, want int) error {
	if len(p) != want {
		return fmt.Errorf("core: constructed path has %d hops, want %d", len(p), want)
	}
	return nil
}
