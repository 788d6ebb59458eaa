package graph

import (
	"testing"
)

func TestCountShortestPathsSquare(t *testing.T) {
	// 4-cycle: two shortest paths to the opposite corner.
	g := fromEdges(t, Undirected, 4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 0})
	counts, dist, err := g.CountShortestPathsFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 2 || counts[2] != 2 {
		t.Errorf("opposite corner: dist %d count %d", dist[2], counts[2])
	}
	if counts[0] != 1 || counts[1] != 1 || counts[3] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestCountShortestPathsUnreachable(t *testing.T) {
	g := fromEdges(t, Directed, 3, [2]int{0, 1})
	counts, dist, err := g.CountShortestPathsFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != -1 || counts[2] != 0 {
		t.Errorf("unreachable: dist %d count %d", dist[2], counts[2])
	}
	if _, _, err := g.CountShortestPathsFrom(9); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func TestCountShortestPathsDeBruijn(t *testing.T) {
	// Every pair at distance k has multiple shortest paths only if
	// the matching structure allows; verify counts against explicit
	// path enumeration on DG(2,3).
	g, err := DeBruijn(Undirected, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.NumVertices(); src++ {
		counts, dist, err := g.CountShortestPathsFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		for dst := 0; dst < g.NumVertices(); dst++ {
			want := enumeratePaths(g, src, dst, dist[dst])
			if counts[dst] != int64(want) {
				t.Errorf("paths %d→%d: count %d, enumeration %d", src, dst, counts[dst], want)
			}
		}
	}
}

// enumeratePaths counts walks of exactly length L from src to dst that
// are shortest (L = dist); DFS over the BFS DAG.
func enumeratePaths(g *Graph, src, dst, L int) int {
	if L < 0 {
		return 0
	}
	if src == dst && L == 0 {
		return 1
	}
	dist, err := g.BFSFrom(src)
	if err != nil {
		return -1
	}
	var rec func(v, remaining int) int
	rec = func(v, remaining int) int {
		if remaining == 0 {
			if v == dst {
				return 1
			}
			return 0
		}
		total := 0
		for _, u := range g.OutNeighbors(v) {
			if dist[u] == dist[v]+1 {
				total += rec(int(u), remaining-1)
			}
		}
		return total
	}
	return rec(src, L)
}

func TestMooreBound(t *testing.T) {
	cases := []struct {
		deg, diam int
		want      int64
	}{
		{3, 1, 4},  // K4
		{3, 2, 10}, // Petersen
		{4, 2, 17},
		{2, 3, 7}, // cycle C7
		{1, 5, 2},
		{4, 1, 5},
	}
	for _, c := range cases {
		if got := MooreBound(c.deg, c.diam); got != c.want {
			t.Errorf("MooreBound(%d,%d) = %d, want %d", c.deg, c.diam, got, c.want)
		}
	}
	if MooreBound(0, 3) != 1 || MooreBound(3, 0) != 1 {
		t.Error("degenerate Moore bounds wrong")
	}
	if MooreBound(1000, 20) <= 0 {
		t.Error("Moore bound overflowed to non-positive")
	}
}

func TestMinDiameterFor(t *testing.T) {
	// N=10 deg 3: Petersen achieves diameter 2, bound says ≥ 2.
	if got := MinDiameterFor(10, 3); got != 2 {
		t.Errorf("MinDiameterFor(10,3) = %d", got)
	}
	if got := MinDiameterFor(11, 3); got != 3 {
		t.Errorf("MinDiameterFor(11,3) = %d", got)
	}
	if got := MinDiameterFor(1, 3); got != 1 {
		t.Errorf("MinDiameterFor(1,3) = %d", got)
	}
}

func TestDeBruijnNearOptimalDiameter(t *testing.T) {
	// §1 (Imase–Itoh): DG(d,k) with N = d^k vertices and max degree
	// 2d has diameter k = log_d N, while the Moore bound allows
	// ~log_{2d-1} N — within a factor ~2 for binary, approaching 1 as
	// d grows.
	for _, dk := range [][2]int{{2, 6}, {3, 4}, {4, 3}, {5, 3}} {
		d, k := dk[0], dk[1]
		n := int64(1)
		for i := 0; i < k; i++ {
			n *= int64(d)
		}
		lower := MinDiameterFor(n, 2*d)
		if lower > k {
			t.Errorf("DG(%d,%d): Moore lower bound %d exceeds actual diameter %d", d, k, lower, k)
		}
		if k > 2*lower+1 {
			t.Errorf("DG(%d,%d): diameter %d more than ~2× the Moore bound %d", d, k, k, lower)
		}
	}
}

func TestDirectedDeBruijnShortestPathsAreUnique(t *testing.T) {
	// In the directed DG(d,k) the shortest path between any ordered
	// pair is unique: a length-n walk X→Y forces the inserted digits
	// to be y_{k-n+1}…y_k and requires the overlap match at exactly
	// s = k-n. Hence route diversity — and wildcard balancing — is a
	// purely bi-directional phenomenon (contrast experiment E12).
	for _, dk := range [][2]int{{2, 3}, {2, 5}, {3, 3}, {4, 2}} {
		g, err := DeBruijn(Directed, dk[0], dk[1])
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < g.NumVertices(); src++ {
			counts, dist, err := g.CountShortestPathsFrom(src)
			if err != nil {
				t.Fatal(err)
			}
			for dst, c := range counts {
				if dist[dst] < 0 {
					t.Fatalf("DG(%d,%d): %d unreachable from %d", dk[0], dk[1], dst, src)
				}
				if c != 1 {
					t.Fatalf("DG(%d,%d): %d→%d has %d shortest paths, want 1", dk[0], dk[1], src, dst, c)
				}
			}
		}
	}
}
