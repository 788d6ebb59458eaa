package deflect

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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

// testDests picks the destinations a check visits on an n-vertex
// graph: all of them up to 128 vertices, else the constant word 0^k
// and six random ranks.
func testDests(rng *rand.Rand, n int) []int {
	var dests []int
	if n <= 128 {
		for v := 0; v < n; v++ {
			dests = append(dests, v)
		}
		return dests
	}
	dests = append(dests, 0)
	for i := 0; i < 6; i++ {
		dests = append(dests, rng.Intn(n))
	}
	return dests
}

// checkLayers asserts that ly, the decomposition of g toward the
// vertex dv, matches BFS distances exactly, that its layers partition
// the vertex set, that Advancing counts each site's BFS-advancing
// links, and that every non-destination site has at least one.
func checkLayers(t *testing.T, name string, g *graph.Graph, ly *Layers, dv int) {
	t.Helper()
	n := g.NumVertices()
	want := bfsToDst(t, g, dv)
	total := 0
	for i := 0; i < ly.NumLayers(); i++ {
		total += len(ly.Layer(i))
		for _, v := range ly.Layer(i) {
			if ly.Dist(int(v)) != i {
				t.Fatalf("%s dst %d: vertex %d in layer %d but Dist=%d", name, dv, v, i, ly.Dist(int(v)))
			}
		}
	}
	if total != n {
		t.Fatalf("%s dst %d: layers cover %d of %d vertices", name, dv, total, n)
	}
	for v := 0; v < n; v++ {
		if ly.Dist(v) != want[v] {
			t.Fatalf("%s: closed-form D(%d,%d)=%d, BFS says %d", name, v, dv, ly.Dist(v), want[v])
		}
		adv := 0
		for _, u := range g.OutNeighbors(v) {
			if want[u] == want[v]-1 {
				adv++
			}
		}
		if adv != ly.Advancing(v) {
			t.Fatalf("Advancing(%d)=%d, counted %d", v, ly.Advancing(v), adv)
		}
		if v != dv && adv == 0 {
			t.Fatalf("%s dst %d: site %d at distance %d has no advancing link", name, dv, v, ly.Dist(v))
		}
	}
}

// TestLayersAgreeWithBFS is the acceptance-criteria assertion: on every
// de Bruijn graph with at most 4096 vertices (both kinds), NewLayers'
// closed-form decomposition passes checkLayers.
func TestLayersAgreeWithBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []graph.Kind{graph.Directed, graph.Undirected} {
		for _, dk := range smallGraphs() {
			g, err := graph.DeBruijn(kind, dk.d, dk.k)
			if err != nil {
				t.Fatalf("DeBruijn(%v,%d,%d): %v", kind, dk.d, dk.k, err)
			}
			for _, dv := range testDests(rng, g.NumVertices()) {
				dw, err := graph.DeBruijnWord(dk.d, dk.k, dv)
				if err != nil {
					t.Fatal(err)
				}
				ly, err := NewLayers(g, dw)
				if err != nil {
					t.Fatalf("NewLayers(%v, DG(%v,%d,%d)): %v", dw, kind, dk.d, dk.k, err)
				}
				checkLayers(t, fmt.Sprintf("DG(%v,%d,%d)", kind, dk.d, dk.k), g, ly, dv)
			}
		}
	}
}

// TestStepDistancesAgreeWithBFS checks the distances Step classifies
// links by, Engine.distances for a fresh message standing at each
// vertex, against BFS on every graph smallGraphs lists, both kinds:
// D(v,dst) and D(u,dst) for every out-neighbour u, and at least one
// advancing link at every site but dst, so the engine deflects only
// under contention. It runs with the table tier built synchronously,
// where the distances of at least one graph of each kind are the rank
// table's bytes, and with the tier disabled, where every distance
// comes from a kernel call.
func TestStepDistancesAgreeWithBFS(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.KernelConfig
	}{
		{"table", core.KernelConfig{SyncTableBuild: true}},
		{"computed", core.KernelConfig{TableBudget: -1}},
	} {
		rng := rand.New(rand.NewSource(43))
		tables := map[graph.Kind]int{}
		for _, kind := range []graph.Kind{graph.Directed, graph.Undirected} {
			for _, dk := range smallGraphs() {
				kn := core.NewKernels(tc.cfg)
				e, err := newEngine(Config{D: dk.d, K: dk.k, Unidirectional: kind == graph.Directed}, kn)
				if err != nil {
					t.Fatal(err)
				}
				g := e.Graph()
				name := fmt.Sprintf("%s DG(%v,%d,%d)", tc.name, kind, dk.d, dk.k)
				for _, dst := range testDests(rng, g.NumVertices()) {
					want := bfsToDst(t, g, dst)
					tab := kn.DistanceTable(dk.d, dk.k, kind == graph.Directed)
					if tc.name == "computed" && tab != nil {
						t.Fatalf("%s: the table tier answers with the tier disabled", name)
					}
					if tab != nil {
						tables[kind]++
					}
					for v := range want {
						m := &msg{dstV: dst, dist: noDist}
						outs := g.OutNeighbors(v)
						dv, dist, err := e.distances(m, v, outs, tab)
						if err != nil {
							t.Fatalf("%s: distances(%d→%d): %v", name, v, dst, err)
						}
						if int(dv) != want[v] {
							t.Fatalf("%s: D(%d,%d)=%d, BFS says %d", name, v, dst, dv, want[v])
						}
						adv := 0
						for i, u := range outs {
							if int(dist[i]) != want[u] {
								t.Fatalf("%s: D(%d,%d)=%d at neighbour of %d, BFS says %d", name, u, dst, dist[i], v, want[u])
							}
							if dist[i]+1 == dv {
								adv++
							}
						}
						if v != dst && adv == 0 {
							t.Fatalf("%s dst %d: site %d at distance %d has no advancing link", name, dst, v, dv)
						}
					}
				}
			}
		}
		if tc.name == "table" && (tables[graph.Directed] == 0 || tables[graph.Undirected] == 0) {
			t.Fatalf("distances read from the rank table, by kind: %v; want both kinds", tables)
		}
	}
}

// TestAdjacencyMatchesGraph: the engine's sites have exactly the
// links of graph.DeBruijn, at every vertex of every DG(d,k) with at
// most 4096 vertices, both kinds. Its Graph's OutNeighbors equal the
// freshly built graph's element for element, in order, and each site's
// Capacity is its out-degree. The constant words, which lose their
// self-loop, and on the undirected graph the alternating words, where
// a left and a right shift coincide, have their capacities checked so
// both cases are known to be hit.
func TestAdjacencyMatchesGraph(t *testing.T) {
	for d := 2; d <= word.MaxBase; d++ {
		for k := 1; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > 4096 {
				break
			}
			for _, kind := range []graph.Kind{graph.Directed, graph.Undirected} {
				g, err := graph.DeBruijn(kind, d, k)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(Config{D: d, K: k, Unidirectional: kind == graph.Directed})
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					want := g.OutNeighbors(v)
					if got := e.Graph().OutNeighbors(v); !slices.Equal(got, want) {
						t.Fatalf("%v DG(%d,%d) vertex %d: engine links %v, graph %v", kind, d, k, v, got, want)
					}
					if c, err := e.Capacity(e.Word(v)); err != nil || c != len(want) {
						t.Fatalf("%v DG(%d,%d) vertex %d: capacity %d (%v), want %d", kind, d, k, v, c, err, len(want))
					}
				}
				if k < 2 {
					continue
				}
				wantConst, wantAlt := d-1, d
				if kind == graph.Undirected {
					wantConst, wantAlt = 2*d-2, 2*d-1
				}
				for c := 0; c < d; c++ {
					cw := word.MustNew(d, bytes.Repeat([]byte{byte(c)}, k))
					if got, _ := e.Capacity(cw); got != wantConst {
						t.Fatalf("%v DG(%d,%d): constant word %v has capacity %d, want %d", kind, d, k, cw, got, wantConst)
					}
				}
				alt := make([]byte, k) // 0101…
				for i := range alt {
					alt[i] = byte(i % 2)
				}
				aw := word.MustNew(d, alt)
				if got, _ := e.Capacity(aw); got != wantAlt {
					t.Fatalf("%v DG(%d,%d): alternating word %v has capacity %d, want %d", kind, d, k, aw, got, wantAlt)
				}
			}
		}
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

// TestAllocBudgets pins the allocations of building a decomposition
// and an engine on DG(2,6), once its shared distance table exists:
//   - NewLayers: at most five objects, independent of N (today just
//     the Layers: the distances are the table's row);
//   - New allocates at most newBudget objects, the same number on
//     DG(2,6) as on DG(2,10): its arrays grow with N, their count
//     does not;
//   - PolicyMinIncrease picks from the candidates' distances without
//     allocating.
func TestAllocBudgets(t *testing.T) {
	// The engine, its graph with its arrays, the Kernels, the seeded
	// generator and its source, the resident sets with their backing
	// array, and the digit buffers.
	const newBudget = 10

	kn := core.NewKernels(core.KernelConfig{SyncTableBuild: true})
	if tier := kn.TierFor(2, 6); tier != core.TierTable {
		t.Fatalf("DG(2,6) resolves to the %v tier, want table", tier)
	}
	g, err := graph.DeBruijn(graph.Undirected, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	dst := word.MustParse(2, "011010")
	if a := testing.AllocsPerRun(20, func() {
		if _, err = NewLayers(g, dst); err != nil {
			t.Fatal(err)
		}
	}); a > 5 {
		t.Errorf("NewLayers on DG(2,6): %v allocs, budget 5", a)
	}

	newAllocs := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := New(Config{D: 2, K: k, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a6, a10 := newAllocs(6), newAllocs(10)
	if a6 > newBudget || a10 != a6 {
		t.Errorf("New: %v allocs on DG(2,6), %v on DG(2,10); want the same count, at most %d", a6, a10, newBudget)
	}

	cand, dist := []int32{0, 21, 42, 63}, []uint8{3, 2, 2, 4}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := (PolicyMinIncrease{}).Choose(nil, 0, cand, dist); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("PolicyMinIncrease.Choose: %v allocs, want 0", a)
	}
}
