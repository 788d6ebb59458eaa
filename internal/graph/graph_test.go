package graph

import (
	"math/rand"
	"strings"
	"testing"
)

func mustNew(t *testing.T, kind Kind, n int) *Graph {
	t.Helper()
	g, err := New(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func addEdges(t *testing.T, g *Graph, pairs ...[2]int) {
	t.Helper()
	for _, p := range pairs {
		if err := g.AddEdge(p[0], p[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", p[0], p[1], err)
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Kind(0), 3); err == nil {
		t.Error("New accepted invalid kind")
	}
	if _, err := New(Directed, 0); err == nil {
		t.Error("New accepted zero vertices")
	}
}

func TestAddEdgeRejectsLoopAndRange(t *testing.T) {
	g := mustNew(t, Directed, 3)
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("accepted self loop")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("accepted out-of-range vertex")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("accepted negative vertex")
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := mustNew(t, Undirected, 3)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 0}, [2]int{0, 1})
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	d := mustNew(t, Directed, 3)
	addEdges(t, d, [2]int{0, 1}, [2]int{0, 1}, [2]int{1, 0})
	if d.NumEdges() != 2 {
		t.Errorf("directed NumEdges = %d, want 2 (mutual arcs distinct)", d.NumEdges())
	}
}

func TestDegreeDirectedCountsBothDirections(t *testing.T) {
	g := mustNew(t, Directed, 3)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 0}, [2]int{2, 1})
	if got := g.Degree(1); got != 3 {
		t.Errorf("Degree(1) = %d, want 3 (in 2 + out 1)", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
}

func TestBFSPathDistanceLine(t *testing.T) {
	// 0-1-2-3 line.
	g := mustNew(t, Undirected, 4)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
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
	g := mustNew(t, Directed, 3)
	addEdges(t, g, [2]int{0, 1})
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
	g := mustNew(t, Undirected, 4)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 3})
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
	g := mustNew(t, Undirected, 4)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
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
	g := mustNew(t, Undirected, 3)
	addEdges(t, g, [2]int{0, 1})
	if _, err := g.Diameter(); err == nil {
		t.Error("Diameter accepted disconnected graph")
	}
	if _, err := g.AvgDistance(); err == nil {
		t.Error("AvgDistance accepted disconnected graph")
	}
}

func TestIsConnected(t *testing.T) {
	g := mustNew(t, Undirected, 3)
	addEdges(t, g, [2]int{0, 1})
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	addEdges(t, g, [2]int{1, 2})
	if !g.IsConnected() {
		t.Error("connected graph reported disconnected")
	}
	// Directed: 0→1→2 is weakly but not strongly connected.
	d := mustNew(t, Directed, 3)
	addEdges(t, d, [2]int{0, 1}, [2]int{1, 2})
	if d.IsConnected() {
		t.Error("non-strongly-connected digraph reported connected")
	}
	addEdges(t, d, [2]int{2, 0})
	if !d.IsConnected() {
		t.Error("strongly connected digraph reported disconnected")
	}
}

func TestIsConnectedAvoiding(t *testing.T) {
	// 0-1-2 line: removing 1 disconnects.
	g := mustNew(t, Undirected, 3)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 2})
	if !g.IsConnectedAvoiding(map[int]bool{0: true}) {
		t.Error("line minus endpoint should stay connected")
	}
	if g.IsConnectedAvoiding(map[int]bool{1: true}) {
		t.Error("line minus middle should disconnect")
	}
}

func TestVertexDisjointPaths(t *testing.T) {
	// Two disjoint 0→·→3 routes.
	g := mustNew(t, Undirected, 4)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 3})
	got, err := g.VertexDisjointPaths(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("VertexDisjointPaths = %d, want 2", got)
	}
	// Cut vertex: 0-1, 1-2 → only one path 0..2.
	h := mustNew(t, Undirected, 3)
	addEdges(t, h, [2]int{0, 1}, [2]int{1, 2})
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
	g := mustNew(t, Directed, 4)
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 3}, [2]int{3, 0})
	got, err := g.VertexDisjointPaths(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("directed VertexDisjointPaths = %d, want 2", got)
	}
}

func TestDOT(t *testing.T) {
	g := mustNew(t, Undirected, 2)
	addEdges(t, g, [2]int{0, 1})
	if err := g.SetLabel(0, "00"); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("t")
	if !strings.Contains(dot, "graph") || !strings.Contains(dot, "n0 -- n1") || !strings.Contains(dot, `"00"`) {
		t.Errorf("DOT output unexpected:\n%s", dot)
	}
	if strings.Contains(dot, "n1 -- n0") {
		t.Error("DOT emitted undirected edge twice")
	}
	d := mustNew(t, Directed, 2)
	addEdges(t, d, [2]int{0, 1}, [2]int{1, 0})
	ddot := d.DOT("t")
	if !strings.Contains(ddot, "digraph") || !strings.Contains(ddot, "n0 -> n1") || !strings.Contains(ddot, "n1 -> n0") {
		t.Errorf("directed DOT unexpected:\n%s", ddot)
	}
}

func TestLabelFallback(t *testing.T) {
	g := mustNew(t, Directed, 2)
	if g.Label(1) != "1" {
		t.Errorf("Label fallback = %q", g.Label(1))
	}
	if err := g.SetLabel(5, "x"); err == nil {
		t.Error("SetLabel accepted out-of-range vertex")
	}
}

func TestRandomGraphBFSSymmetry(t *testing.T) {
	// In undirected graphs dist(u,v) == dist(v,u).
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(20)
		g := mustNew(t, Undirected, n)
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = g.AddEdge(u, v)
			}
		}
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
