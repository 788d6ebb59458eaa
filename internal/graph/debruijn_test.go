package graph

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/word"
)

func TestDeBruijnDirectedDG23Structure(t *testing.T) {
	// Figure 1(a): directed DG(2,3).
	g, err := DeBruijn(Directed, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 {
		t.Fatalf("N = %d, want 8", g.NumVertices())
	}
	// Arcs: Nd = 16 minus d = 2 self loops = 14.
	if g.NumEdges() != 14 {
		t.Errorf("arcs = %d, want 14", g.NumEdges())
	}
	// Spot-check adjacency from the figure: 010 → 100, 101.
	v := DeBruijnVertex(word.MustParse(2, "010"))
	var got []string
	for _, u := range g.OutNeighbors(v) {
		got = append(got, g.Label(int(u)))
	}
	if strings.Join(got, ",") != "100,101" {
		t.Errorf("out(010) = %v", got)
	}
	if !g.IsConnected() {
		t.Error("directed DG(2,3) not strongly connected")
	}
}

func TestDeBruijnUndirectedDG23Structure(t *testing.T) {
	// Figure 1(b): undirected DG(2,3) has 13 edges
	// (16 slots − 2 loops − 1 coincident pair {010,101}).
	g, err := DeBruijn(Undirected, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees: 4,4,4,4 (001,011,100,110), 3,3 (010,101), 2,2 (000,111);
	// sum 26, so 13 edges.
	sum := 0
	for v := 0; v < g.NumVertices(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.NumEdges() {
		t.Errorf("degree sum %d != 2·edges %d", sum, 2*g.NumEdges())
	}
	if g.NumEdges() != 13 {
		t.Errorf("edges = %d, want 13", g.NumEdges())
	}
	deg := func(s string) int {
		return g.Degree(DeBruijnVertex(word.MustParse(2, s)))
	}
	for s, want := range map[string]int{
		"000": 2, "111": 2, "010": 3, "101": 3,
		"001": 4, "011": 4, "100": 4, "110": 4,
	} {
		if got := deg(s); got != want {
			t.Errorf("deg(%s) = %d, want %d", s, got, want)
		}
	}
}

func TestDeBruijnDegreeCensus(t *testing.T) {
	// E1: measured census equals the (re-derived) predicted census.
	for _, kind := range []Kind{Directed, Undirected} {
		for _, dk := range [][2]int{{2, 2}, {2, 3}, {2, 5}, {3, 2}, {3, 3}, {4, 2}, {4, 3}, {5, 2}} {
			d, k := dk[0], dk[1]
			g, err := DeBruijn(kind, d, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DeBruijnDegreeCensusWant(kind, d, k)
			if err != nil {
				t.Fatal(err)
			}
			got := g.DegreeCensus()
			if len(got) != len(want) {
				t.Fatalf("%v DG(%d,%d) census = %v, want %v", kind, d, k, got, want)
			}
			for deg, n := range want {
				if got[deg] != n {
					t.Errorf("%v DG(%d,%d) census[%d] = %d, want %d", kind, d, k, deg, got[deg], n)
				}
			}
		}
	}
}

func TestDeBruijnCensusFormulaRejectsK1(t *testing.T) {
	if _, err := DeBruijnDegreeCensusWant(Directed, 2, 1); err == nil {
		t.Error("census formula accepted k=1")
	}
}

func TestDeBruijnDiameterIsK(t *testing.T) {
	// Section 2: DG(d,k) has diameter k, both kinds.
	for _, kind := range []Kind{Directed, Undirected} {
		for _, dk := range [][2]int{{2, 2}, {2, 3}, {2, 4}, {2, 5}, {3, 2}, {3, 3}, {4, 2}} {
			g, err := DeBruijn(kind, dk[0], dk[1])
			if err != nil {
				t.Fatal(err)
			}
			dia, err := g.Diameter()
			if err != nil {
				t.Fatal(err)
			}
			if dia != dk[1] {
				t.Errorf("%v DG(%d,%d) diameter = %d, want %d", kind, dk[0], dk[1], dia, dk[1])
			}
		}
	}
}

func TestDeBruijnZeroToOnesDistanceIsK(t *testing.T) {
	// Section 2: the distance from (0,...,0) to (1,...,1) is exactly k.
	for _, kind := range []Kind{Directed, Undirected} {
		for k := 1; k <= 6; k++ {
			g, err := DeBruijn(kind, 2, k)
			if err != nil {
				t.Fatal(err)
			}
			zeros, _ := word.Zeros(2, k)
			ones := word.MustParse(2, strings.Repeat("1", k))
			got, err := g.Distance(DeBruijnVertex(zeros), DeBruijnVertex(ones))
			if err != nil {
				t.Fatal(err)
			}
			if got != k {
				t.Errorf("%v DG(2,%d): d(0^k,1^k) = %d, want %d", kind, k, got, k)
			}
		}
	}
}

func TestDeBruijnLabelsRoundTrip(t *testing.T) {
	g, err := DeBruijn(Directed, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		w, err := DeBruijnWord(3, 2, v)
		if err != nil {
			t.Fatal(err)
		}
		if g.Label(v) != w.String() {
			t.Errorf("label(%d) = %q, want %q", v, g.Label(v), w)
		}
		if DeBruijnVertex(w) != v {
			t.Errorf("vertex(%v) = %d, want %d", w, DeBruijnVertex(w), v)
		}
	}
}

// TestDeBruijnEdgesAreShiftMoves holds DeBruijn's rank arithmetic to
// the paper's definition of DG(d,k) by word shifts, at every vertex of
// every graph with at most 4096 vertices, both kinds: OutNeighbors(v)
// is the sorted, distinct ranks of v's left shifts (and, undirected,
// of its right shifts) minus v, and a directed graph's InNeighbors(v)
// its right shifts minus v. The degrees of the constant words, which
// lose their self-loop, and of an alternating word, where a left and a
// right shift coincide on the undirected graph, are checked so both
// cases are known to be hit.
func TestDeBruijnEdgesAreShiftMoves(t *testing.T) {
	for d := 2; d <= word.MaxBase; d++ {
		for k := 1; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > 4096 {
				break
			}
			// shifts lists the ranks one shift away from v, ascending,
			// distinct and without v.
			shifts := func(v int, left, right bool) []int32 {
				w, err := DeBruijnWord(d, k, v)
				if err != nil {
					t.Fatal(err)
				}
				var s []int32
				for a := byte(0); int(a) < d; a++ {
					if left {
						s = append(s, int32(w.ShiftLeft(a).MustRank()))
					}
					if right {
						s = append(s, int32(w.ShiftRight(a).MustRank()))
					}
				}
				slices.Sort(s)
				return slices.DeleteFunc(slices.Compact(s), func(u int32) bool { return u == int32(v) })
			}
			for _, kind := range []Kind{Directed, Undirected} {
				g, err := DeBruijn(kind, d, k)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					if got, want := g.OutNeighbors(v), shifts(v, true, kind == Undirected); !slices.Equal(got, want) {
						t.Fatalf("%v DG(%d,%d) vertex %d: out-neighbours %v, shift moves %v", kind, d, k, v, got, want)
					}
					if kind == Directed {
						if got, want := g.InNeighbors(v), shifts(v, false, true); !slices.Equal(got, want) {
							t.Fatalf("directed DG(%d,%d) vertex %d: in-neighbours %v, right shifts %v", d, k, v, got, want)
						}
					}
				}
				if k < 2 {
					continue
				}
				wantConst, wantAlt := d-1, d
				if kind == Undirected {
					wantConst, wantAlt = 2*d-2, 2*d-1
				}
				for c := 0; c < d; c++ {
					cw := word.MustNew(d, bytes.Repeat([]byte{byte(c)}, k))
					if got := len(g.OutNeighbors(DeBruijnVertex(cw))); got != wantConst {
						t.Fatalf("%v DG(%d,%d): constant word %v has %d out-neighbours, want %d", kind, d, k, cw, got, wantConst)
					}
				}
				alt := make([]byte, k) // 0101…
				for i := range alt {
					alt[i] = byte(i % 2)
				}
				aw := word.MustNew(d, alt)
				if got := len(g.OutNeighbors(DeBruijnVertex(aw))); got != wantAlt {
					t.Fatalf("%v DG(%d,%d): alternating word %v has %d out-neighbours, want %d", kind, d, k, aw, got, wantAlt)
				}
			}
		}
	}
}

// TestDeBruijnAllocs pins DeBruijn to the Graph and its one buffer: at
// most two allocations, the same count on DG(2,6) as on DG(2,10).
func TestDeBruijnAllocs(t *testing.T) {
	for _, kind := range []Kind{Directed, Undirected} {
		allocs := func(k int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := DeBruijn(kind, 2, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a6, a10 := allocs(6), allocs(10); a6 > 2 || a10 != a6 {
			t.Errorf("%v DeBruijn: %v allocs on DG(2,6), %v on DG(2,10); want the same count, at most 2", kind, a6, a10)
		}
	}
}

// TestNewValidates: DeBruijn, the only constructor of a Graph, refuses
// any kind but Directed and Undirected, and a graph without vertices.
func TestNewValidates(t *testing.T) {
	for _, kind := range []Kind{Kind(0), Kind(-1), Undirected + 1} {
		if _, err := DeBruijn(kind, 2, 3); !errors.Is(err, ErrKind) {
			t.Errorf("accepted invalid kind %v: %v", kind, err)
		}
	}
	for _, kind := range []Kind{Directed, Undirected} {
		if g, err := DeBruijn(kind, 2, 3); err != nil || g.Kind() != kind {
			t.Errorf("DeBruijn(%v, 2, 3): kind %v, error %v", kind, g.Kind(), err)
		}
	}
	if _, err := DeBruijn(Directed, 0, 3); err == nil {
		t.Error("accepted d=0, a graph with no vertices")
	}
}

func TestDeBruijnRejectsBadParams(t *testing.T) {
	if _, err := DeBruijn(Directed, 1, 3); err == nil {
		t.Error("accepted d=1")
	}
	if _, err := DeBruijn(Directed, 2, 0); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := DeBruijn(Directed, 2, 80); err == nil {
		t.Error("accepted overflowing size")
	}
}
