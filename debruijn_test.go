package debruijn_test

import (
	"testing"

	debruijn "repro"
)

func TestFacadeQuickstart(t *testing.T) {
	x := debruijn.MustParse(2, "0110")
	y := debruijn.MustParse(2, "1011")
	d, err := debruijn.UndirectedDistance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("distance = %d, want 1 (1011 = 0110⁺(1))", d)
	}
	p, err := debruijn.RouteUndirectedLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || p[0].Type != debruijn.TypeR || p[0].Digit != 1 {
		t.Errorf("path = %v", p)
	}
	end, err := p.Apply(x, nil)
	if err != nil || !end.Equal(y) {
		t.Errorf("apply = %v, %v", end, err)
	}
}

func TestFacadeDirected(t *testing.T) {
	x := debruijn.MustParse(2, "000")
	y := debruijn.MustParse(2, "111")
	d, err := debruijn.DirectedDistance(x, y)
	if err != nil || d != 3 {
		t.Errorf("directed distance = %d, %v", d, err)
	}
	p, err := debruijn.RouteDirected(x, y)
	if err != nil || p.Len() != 3 {
		t.Errorf("route = %v, %v", p, err)
	}
}

func TestFacadeGraphAndCounts(t *testing.T) {
	n, err := debruijn.NumVertices(2, 5)
	if err != nil || n != 32 {
		t.Fatalf("NumVertices = %d, %v", n, err)
	}
	g, err := debruijn.Graph(debruijn.Undirected, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 32 {
		t.Errorf("graph has %d vertices", g.NumVertices())
	}
	dia, err := g.Diameter()
	if err != nil || dia != 5 {
		t.Errorf("diameter = %d, %v", dia, err)
	}
}

func TestFacadeFormula(t *testing.T) {
	if got := debruijn.DirectedMeanFormula(2, 3); got != 3-1+0.125 {
		t.Errorf("formula = %v", got)
	}
}

func TestFacadeWordConstructors(t *testing.T) {
	w, err := debruijn.NewWord(3, []byte{0, 2, 1})
	if err != nil || w.String() != "021" {
		t.Errorf("NewWord = %v, %v", w, err)
	}
	if _, err := debruijn.Parse(2, "012"); err == nil {
		t.Error("Parse accepted bad digit")
	}
	lin, err := debruijn.UndirectedDistanceLinear(w, debruijn.MustParse(3, "120"))
	if err != nil {
		t.Fatal(err)
	}
	quad, err := debruijn.UndirectedDistance(w, debruijn.MustParse(3, "120"))
	if err != nil || lin != quad {
		t.Errorf("linear %d vs quadratic %d, %v", lin, quad, err)
	}
	if _, err := debruijn.RouteUndirected(w, debruijn.MustParse(2, "010")); err == nil {
		t.Error("accepted mixed bases")
	}
}

func TestFacadeRouterAndExtensions(t *testing.T) {
	r := debruijn.NewRouter(4)
	x := debruijn.MustParse(2, "0110")
	y := debruijn.MustParse(2, "1001")
	d, err := r.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := debruijn.UndirectedDistance(x, y)
	if err != nil || d != want {
		t.Errorf("router distance %d, want %d (%v)", d, want, err)
	}
	p, err := r.Route(x, y)
	if err != nil || len(p) != want {
		t.Errorf("router route %v (%v), want %d hops", p, err, want)
	}
}
