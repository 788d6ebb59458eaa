package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fromEdges builds an n-vertex graph of the given kind from an edge
// list. Repeated arcs (and, undirected, reversed edges) count once;
// self loops are not allowed.
func fromEdges(t *testing.T, kind Kind, n int, edges ...[2]int) *Graph {
	t.Helper()
	out, in := make([][]int32, n), make([][]int32, n)
	g := &Graph{kind: kind}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || u >= n || v >= n {
			t.Fatalf("fromEdges: bad edge %v on %d vertices", e, n)
		}
		if slices.Contains(out[u], int32(v)) {
			continue
		}
		out[u] = append(out[u], int32(v))
		if kind == Directed {
			in[v] = append(in[v], int32(u))
		} else {
			out[v] = append(out[v], int32(u))
		}
		g.edges++
	}
	// add lays the lists out back to back, each sorted, with their
	// offsets and a closing one; a directed graph's in-lists follow its
	// out-lists.
	add := func(lists [][]int32) {
		for _, l := range lists {
			g.off = append(g.off, int32(len(g.nbr)))
			g.nbr = append(g.nbr, l...)
			slices.Sort(g.nbr[len(g.nbr)-len(l):])
		}
		g.off = append(g.off, int32(len(g.nbr)))
	}
	add(out)
	if kind == Directed {
		add(in)
	}
	return g
}

func TestDegreeDirectedCountsBothDirections(t *testing.T) {
	g := fromEdges(t, Directed, 3, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 1})
	if got := g.Degree(1); got != 3 {
		t.Errorf("Degree(1) = %d, want 3 (in 2 + out 1)", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
}

func TestBFSPathDistanceLine(t *testing.T) {
	// 0-1-2-3 line.
	g := fromEdges(t, Undirected, 4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	dist, err := g.BFSFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 3} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	p, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Errorf("ShortestPath = %v", p)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := fromEdges(t, Directed, 3, [2]int{0, 1})
	dist, err := g.BFSFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != -1 || dist[2] != -1 {
		t.Errorf("expected -1 for unreachable, got %v", dist)
	}
	p, err := g.ShortestPath(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Errorf("path to unreachable = %v", p)
	}
}

func TestBFSAvoidingBlocked(t *testing.T) {
	// 0-1-3 and 0-2-3; block 1, still reach 3 via 2 at distance 2.
	g := fromEdges(t, Undirected, 4, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 3})
	dist, err := g.BFSFromAvoiding(0, map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	if dist[3] != 2 || dist[1] != -1 {
		t.Errorf("avoiding BFS = %v", dist)
	}
	if _, err := g.BFSFromAvoiding(1, map[int]bool{1: true}); err == nil {
		t.Error("accepted blocked source")
	}
	p, err := g.ShortestPathAvoiding(0, 3, map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1] != 1 {
		t.Errorf("ShortestPathAvoiding = %v", p)
	}
}

func TestDiameterAndAvg(t *testing.T) {
	// Cycle of 4: diameter 2, avg distance (1+1+2)*4 / 12 = 16/12.
	g := fromEdges(t, Undirected, 4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
	dia, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if dia != 2 {
		t.Errorf("Diameter = %d, want 2", dia)
	}
	avg, err := g.AvgDistance()
	if err != nil {
		t.Fatal(err)
	}
	if want := 16.0 / 12.0; avg < want-1e-12 || avg > want+1e-12 {
		t.Errorf("AvgDistance = %v, want %v", avg, want)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := fromEdges(t, Undirected, 3, [2]int{0, 1})
	if _, err := g.Diameter(); err == nil {
		t.Error("Diameter accepted disconnected graph")
	}
	if _, err := g.AvgDistance(); err == nil {
		t.Error("AvgDistance accepted disconnected graph")
	}
}

func TestIsConnected(t *testing.T) {
	g := fromEdges(t, Undirected, 3, [2]int{0, 1})
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if g = fromEdges(t, Undirected, 3, [2]int{0, 1}, [2]int{1, 2}); !g.IsConnected() {
		t.Error("connected graph reported disconnected")
	}
	// Directed: 0→1→2 is weakly but not strongly connected.
	d := fromEdges(t, Directed, 3, [2]int{0, 1}, [2]int{1, 2})
	if d.IsConnected() {
		t.Error("non-strongly-connected digraph reported connected")
	}
	if d = fromEdges(t, Directed, 3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}); !d.IsConnected() {
		t.Error("strongly connected digraph reported disconnected")
	}
}

func TestIsConnectedAvoiding(t *testing.T) {
	// 0-1-2 line: removing 1 disconnects.
	g := fromEdges(t, Undirected, 3, [2]int{0, 1}, [2]int{1, 2})
	if !g.IsConnectedAvoiding(map[int]bool{0: true}) {
		t.Error("line minus endpoint should stay connected")
	}
	if g.IsConnectedAvoiding(map[int]bool{1: true}) {
		t.Error("line minus middle should disconnect")
	}
}

func TestVertexDisjointPaths(t *testing.T) {
	// Two disjoint 0→·→3 routes.
	g := fromEdges(t, Undirected, 4, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 3})
	got, err := g.VertexDisjointPaths(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("VertexDisjointPaths = %d, want 2", got)
	}
	// Cut vertex: 0-1, 1-2 → only one path 0..2.
	h := fromEdges(t, Undirected, 3, [2]int{0, 1}, [2]int{1, 2})
	got, err = h.VertexDisjointPaths(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("VertexDisjointPaths = %d, want 1", got)
	}
	if _, err := h.VertexDisjointPaths(0, 0); err == nil {
		t.Error("accepted equal endpoints")
	}
}

func TestVertexDisjointPathsDirected(t *testing.T) {
	// 0→1→3, 0→2→3 and a reverse arc that must not help.
	g := fromEdges(t, Directed, 4, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 3}, [2]int{3, 0})
	got, err := g.VertexDisjointPaths(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("directed VertexDisjointPaths = %d, want 2", got)
	}
}

func TestDOT(t *testing.T) {
	// DG(2,2) undirected: 01 and 10 are joined once, by a left and a
	// right shift that coincide.
	g, err := DeBruijn(Undirected, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("t")
	if !strings.Contains(dot, "graph") || !strings.Contains(dot, "n1 -- n2") || !strings.Contains(dot, `n2 [label="10"]`) {
		t.Errorf("DOT output unexpected:\n%s", dot)
	}
	if strings.Contains(dot, "n2 -- n1") || strings.Count(dot, "n1 -- n2") != 1 {
		t.Error("DOT emitted undirected edge twice")
	}
	d := fromEdges(t, Directed, 2, [2]int{0, 1}, [2]int{1, 0})
	ddot := d.DOT("t")
	if !strings.Contains(ddot, "digraph") || !strings.Contains(ddot, "n0 -> n1") || !strings.Contains(ddot, "n1 -> n0") {
		t.Errorf("directed DOT unexpected:\n%s", ddot)
	}
}

func TestLabelFallback(t *testing.T) {
	g := fromEdges(t, Directed, 2, [2]int{0, 1})
	if g.Label(1) != "1" {
		t.Errorf("Label fallback = %q", g.Label(1))
	}
}

func TestRandomGraphBFSSymmetry(t *testing.T) {
	// In undirected graphs dist(u,v) == dist(v,u).
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(20)
		var edges [][2]int
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		g := fromEdges(t, Undirected, n, edges...)
		du, err := g.BFSFrom(0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range du {
			dv, err := g.BFSFrom(v)
			if err != nil {
				t.Fatal(err)
			}
			if dv[0] != du[v] {
				t.Fatalf("asymmetric distances: d(0,%d)=%d d(%d,0)=%d", v, du[v], v, dv[0])
			}
		}
	}
}

// TestSampleArcs pins the arc-failure sampler: distinct real arcs, the
// requested count, and a pure function of the rng stream.
func TestSampleArcs(t *testing.T) {
	g, err := DeBruijn(Undirected, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for size := 0; size <= 6; size++ {
		a := g.SampleArcs(size, rand.New(rand.NewSource(int64(size))))
		b := g.SampleArcs(size, rand.New(rand.NewSource(int64(size))))
		if len(a) != size {
			t.Fatalf("size %d: drew %d arcs", size, len(a))
		}
		for arc := range a {
			if !g.HasEdge(arc[0], arc[1]) {
				t.Fatalf("size %d: %v is not an arc", size, arc)
			}
			if !b[arc] {
				t.Fatalf("size %d: same seed drew %v only once", size, arc)
			}
		}
	}
}
