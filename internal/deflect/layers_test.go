package deflect

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// smallGraphs enumerates every DG(d,k) with d^k ≤ 4096 and k ≥ 2, the
// family the acceptance criteria require the layer decomposition to be
// BFS-validated on.
func smallGraphs() []struct{ d, k int } {
	var out []struct{ d, k int }
	for d := 2; d <= 5; d++ {
		for k := 2; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > 4096 {
				break
			}
			out = append(out, struct{ d, k int }{d, k})
		}
	}
	return out
}

// bfsToDst returns the BFS distance from every vertex TO dst: forward
// BFS for undirected graphs, reverse BFS (along in-neighbors) for
// directed ones.
func bfsToDst(t *testing.T, g *graph.Graph, dst int) []int {
	t.Helper()
	if g.Kind() == graph.Undirected {
		dist, err := g.BFSFrom(dst)
		if err != nil {
			t.Fatalf("BFSFrom(%d): %v", dst, err)
		}
		return dist
	}
	n := g.NumVertices()
	dist := make([]int, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.InNeighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return dist
}

// TestLayersAgreeWithBFS is the acceptance-criteria assertion: on every
// de Bruijn graph with at most 4096 vertices (both kinds), the
// closed-form layer decomposition matches BFS distances exactly, the
// layers partition the vertex set, link classification is consistent,
// and every non-destination site has at least one advancing link — so
// the engine deflects only under contention, never for lack of a
// shortest-path move.
func TestLayersAgreeWithBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []graph.Kind{graph.Directed, graph.Undirected} {
		for _, dk := range smallGraphs() {
			g, err := graph.DeBruijn(kind, dk.d, dk.k)
			if err != nil {
				t.Fatalf("DeBruijn(%v,%d,%d): %v", kind, dk.d, dk.k, err)
			}
			n := g.NumVertices()
			var dests []int
			if n <= 128 {
				for v := 0; v < n; v++ {
					dests = append(dests, v)
				}
			} else {
				dests = append(dests, 0) // the constant word 0^k
				for i := 0; i < 6; i++ {
					dests = append(dests, rng.Intn(n))
				}
			}
			for _, dv := range dests {
				dw, err := graph.DeBruijnWord(dk.d, dk.k, dv)
				if err != nil {
					t.Fatal(err)
				}
				ly, err := NewLayers(g, dw)
				if err != nil {
					t.Fatalf("NewLayers(%v, DG(%v,%d,%d)): %v", dw, kind, dk.d, dk.k, err)
				}
				want := bfsToDst(t, g, dv)
				total := 0
				for i := 0; i < ly.NumLayers(); i++ {
					total += len(ly.Layer(i))
					for _, v := range ly.Layer(i) {
						if ly.Dist(int(v)) != i {
							t.Fatalf("DG(%v,%d,%d) dst %v: vertex %d in layer %d but Dist=%d",
								kind, dk.d, dk.k, dw, v, i, ly.Dist(int(v)))
						}
					}
				}
				if total != n {
					t.Fatalf("DG(%v,%d,%d) dst %v: layers cover %d of %d vertices",
						kind, dk.d, dk.k, dw, total, n)
				}
				for v := 0; v < n; v++ {
					if ly.Dist(v) != want[v] {
						t.Fatalf("DG(%v,%d,%d): closed-form D(%d,%v)=%d, BFS says %d",
							kind, dk.d, dk.k, v, dw, ly.Dist(v), want[v])
					}
					adv := 0
					for _, lk := range ly.Links(v) {
						wantAdv := ly.Dist(int(lk.To)) == ly.Dist(v)-1
						if lk.Advancing != wantAdv {
							t.Fatalf("DG(%v,%d,%d) dst %v: link %d→%d classified %v, want %v",
								kind, dk.d, dk.k, dw, v, lk.To, lk.Advancing, wantAdv)
						}
						if lk.Advancing {
							adv++
						}
					}
					if adv != ly.Advancing(v) {
						t.Fatalf("Advancing(%d)=%d, counted %d", v, ly.Advancing(v), adv)
					}
					if v != dv && adv == 0 {
						t.Fatalf("DG(%v,%d,%d) dst %v: site %d at distance %d has no advancing link",
							kind, dk.d, dk.k, dw, v, ly.Dist(v))
					}
				}
			}
		}
	}
}

func TestLayerCacheMemoizes(t *testing.T) {
	g, err := graph.DeBruijn(graph.Undirected, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLayerCache(g)
	dst := word.MustParse(2, "10110")
	a, err := c.For(dst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.For(dst)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache rebuilt the decomposition for a seen destination")
	}
	if c.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", c.Size())
	}
	if _, err := c.For(word.MustParse(2, "00000")); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", c.Size())
	}
}

func TestNewLayersRejectsMismatchedGraph(t *testing.T) {
	g, err := graph.DeBruijn(graph.Directed, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLayers(g, word.MustParse(2, "10101")); err == nil {
		t.Fatal("NewLayers accepted a destination word of the wrong length")
	}
}

// TestAllocBudgets: once DG(2,6)'s shared distance table exists,
// NewLayers allocates a constant five objects, independent of N — the
// Layers, its dist, order and offset arrays, and the enumeration's one
// digit buffer — and PolicyMinIncrease reads candidate distances from
// the layer without allocating.
func TestAllocBudgets(t *testing.T) {
	if tier := core.NewKernels(core.KernelConfig{SyncTableBuild: true}).TierFor(2, 6); tier != core.TierTable {
		t.Fatalf("DG(2,6) resolves to the %v tier, want table", tier)
	}
	g, err := graph.DeBruijn(graph.Undirected, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	dst := word.MustParse(2, "011010")
	var ly *Layers
	if a := testing.AllocsPerRun(20, func() {
		if ly, err = NewLayers(g, dst); err != nil {
			t.Fatal(err)
		}
	}); a > 5 {
		t.Errorf("NewLayers on DG(2,6): %v allocs, budget 5", a)
	}
	cand := []int32{0, 21, 42, 63}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := (PolicyMinIncrease{}).Choose(nil, ly, 0, cand); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("PolicyMinIncrease.Choose: %v allocs, want 0", a)
	}
}
