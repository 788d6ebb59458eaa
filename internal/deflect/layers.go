// Package deflect implements bufferless deflection (hot-potato)
// routing on the de Bruijn network DN(d,k) — the routing regime in
// which a site has no message queues at all: every round each site
// emits all resident messages, one per output link, and messages that
// lose the contention for a distance-decreasing link are deflected
// onto a free link instead of being buffered.
//
// The paper's distance function is exactly the primitive this regime
// needs. Property 1 (directed) and Theorem 2 (undirected) tell every
// site, in O(k) work and with no global state, how far each neighbor
// is from any destination — so a site can classify each of its output
// links as *advancing* (distance-decreasing) or *deflecting* for a
// given destination, and a deflection policy can bound the cost of
// losing a contention. Fàbrega, Martí-Farré & Muñoz (PAPERS.md,
// arXiv:2203.09918) formalize this as the distance-layer structure
// B_0..B_k of the de Bruijn digraph.
//
// The engine (engine.go) is synchronous and slotted: per round, each
// directed channel carries at most one message, contention is resolved
// oldest-first, and losers are deflected by a pluggable policy
// (random, min-distance-increase, layer-aware). It reads the distances
// it classifies links by where each message stands — D(v,dst) and
// D(u,dst) for the free out-neighbours u — and keeps nothing per
// destination. An age guard makes livelock detectable and counted
// rather than silent.
//
// Layers holds the whole decomposition toward one destination, one
// distance per vertex rank from the closed-form distance function: an
// analysis object, validated against BFS on the explicit graph, that
// the engine does not use. Experiment E18
// (cmd/dbstats -table deflect) sweeps offered load × policy against
// the store-and-forward engines of internal/network.
package deflect

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// Layers is the distance-layer decomposition of DG(d,k) relative to
// one destination Y: the partition of the vertex set into layers
// B_i = {X : D(X,Y) = i}, i = 0..k, with every output link of every
// site classified as advancing or deflecting. Distances come from the
// paper's closed-form functions (Property 1 for the directed graph,
// Theorem 2 for the undirected one), not from graph search; the tests
// assert the two agree on every graph up to 4096 vertices. Only the
// distance of each vertex is stored; Layer buckets them on demand.
type Layers struct {
	g    *graph.Graph
	k    int
	dist []uint8 // dist[v] = D(v, dst); read-only, possibly the shared rank table's row
}

// NewLayers computes the decomposition of g — a de Bruijn graph built
// by graph.DeBruijn with matching d and k — toward dst. Directed
// graphs use Property 1, undirected ones Theorem 2, both through
// core.Kernels. On a table-eligible undirected graph whose shared table
// is built the distances are the table's row for dst, read in place;
// otherwise core.Kernels.DistanceColumn computes them, one O(k) kernel
// call per vertex. Cost: O(N·k), O(1) from the table.
func NewLayers(g *graph.Graph, dst word.Word) (*Layers, error) {
	d, k := dst.Base(), dst.Len()
	n, err := word.Count(d, k)
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	if g.NumVertices() != n {
		return nil, fmt.Errorf("deflect: graph has %d vertices, DG(%d,%d) needs %d",
			g.NumVertices(), d, k, n)
	}
	kn := core.NewKernels(core.KernelConfig{})
	directed := g.Kind() == graph.Directed
	ly := &Layers{g: g, k: k}
	if tab := kn.DistanceTable(d, k, directed); tab != nil && !directed {
		// Theorem 2's distance is symmetric: the row from dst is the
		// column toward it.
		r := int(dst.MustRank())
		ly.dist = tab[r*n : (r+1)*n : (r+1)*n]
		return ly, nil
	}
	ly.dist = make([]uint8, n)
	if err := kn.DistanceColumn(dst, directed, ly.dist); err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	return ly, nil
}

// Dist returns D(v, dst) per the closed-form distance function.
func (l *Layers) Dist(v int) int { return int(l.dist[v]) }

// NumLayers returns k+1, the number of (possibly empty) layers B_0..B_k.
func (l *Layers) NumLayers() int { return l.k + 1 }

// Layer returns the vertices of B_i in ascending order, in a fresh
// slice: one O(N) pass over the distances per call.
func (l *Layers) Layer(i int) []int32 {
	var b []int32
	for v, dv := range l.dist {
		if int(dv) == i {
			b = append(b, int32(v))
		}
	}
	return b
}

// Advancing returns how many out-links of v decrease the distance —
// the shortest-path out-diversity the deflection engine can exploit.
func (l *Layers) Advancing(v int) int {
	n := 0
	for _, u := range l.g.OutNeighbors(v) {
		if l.dist[u]+1 == l.dist[v] {
			n++
		}
	}
	return n
}
