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
// B_0..B_k of the de Bruijn digraph; Layers materializes that
// decomposition from the closed-form distance function and the tests
// validate it against BFS on the explicit graph.
//
// The engine (engine.go) is synchronous and slotted: per round, each
// directed channel carries at most one message, contention is resolved
// oldest-first, and losers are deflected by a pluggable policy
// (random, min-distance-increase, layer-aware). An age guard makes
// livelock detectable and counted rather than silent. Experiment E18
// (cmd/dbstats -table deflect) sweeps offered load × policy against
// the store-and-forward engines of internal/network.
package deflect

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// Link is one classified output link of a site, relative to a fixed
// destination.
type Link struct {
	// To is the vertex the link leads to.
	To int32
	// Advancing reports whether taking the link decreases the distance
	// to the destination (dist(To) == dist(from) - 1); a non-advancing
	// link is a deflection.
	Advancing bool
}

// Layers is the distance-layer decomposition of DG(d,k) relative to
// one destination Y: the partition of the vertex set into layers
// B_i = {X : D(X,Y) = i}, i = 0..k, with every output link of every
// site classified as advancing or deflecting. Distances come from the
// paper's closed-form functions (Property 1 for the directed graph,
// Theorem 2 for the undirected one), not from graph search; the tests
// assert the two agree on every graph up to 4096 vertices.
type Layers struct {
	g     *graph.Graph
	dst   word.Word
	dist  []int32 // dist[v] = D(v, dst)
	order []int32 // vertices bucketed by layer, ascending within each
	off   []int32 // B_i = order[off[i]:off[i+1]]
}

// NewLayers computes the decomposition of g — a de Bruijn graph built
// by graph.DeBruijn with matching d and k — toward dst. Directed
// graphs use Property 1, undirected ones Theorem 2, both evaluated
// through core.Kernels.DistanceColumn: one O(k) kernel call per
// vertex, or one read of the shared table's column toward dst on
// table-eligible graphs. Cost: O(N·k), O(N) from the table.
func NewLayers(g *graph.Graph, dst word.Word) (*Layers, error) {
	return newLayers(g, dst, core.NewKernels(core.KernelConfig{}))
}

func newLayers(g *graph.Graph, dst word.Word, kn *core.Kernels) (*Layers, error) {
	n, err := word.Count(dst.Base(), dst.Len())
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	if g.NumVertices() != n {
		return nil, fmt.Errorf("deflect: graph has %d vertices, DG(%d,%d) needs %d",
			g.NumVertices(), dst.Base(), dst.Len(), n)
	}
	k := dst.Len()
	buf := make([]int32, 2*n)
	ly := &Layers{
		g:     g,
		dst:   dst,
		dist:  buf[:n],
		order: buf[n:],
		off:   make([]int32, k+2),
	}
	if err := kn.DistanceColumn(dst, g.Kind() == graph.Directed, ly.dist); err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	for _, dv := range ly.dist {
		ly.off[dv+1]++
	}
	// Counting sort: off[i+1] holds |B_i|, prefix sums make off[i] the
	// start of B_i, filling in vertex order (so each layer ascends)
	// moves it to the end of B_i, and one shift restores the starts.
	for i := 1; i <= k+1; i++ {
		ly.off[i] += ly.off[i-1]
	}
	for u, du := range ly.dist {
		ly.order[ly.off[du]] = int32(u)
		ly.off[du]++
	}
	copy(ly.off[1:], ly.off[:k+1])
	ly.off[0] = 0
	return ly, nil
}

// Dst returns the destination the decomposition is relative to.
func (l *Layers) Dst() word.Word { return l.dst }

// Dist returns D(v, dst) per the closed-form distance function.
func (l *Layers) Dist(v int) int { return int(l.dist[v]) }

// NumLayers returns k+1, the number of (possibly empty) layers B_0..B_k.
func (l *Layers) NumLayers() int { return len(l.off) - 1 }

// Layer returns the vertices of B_i in ascending order. The returned
// slice must not be modified.
func (l *Layers) Layer(i int) []int32 { return l.order[l.off[i]:l.off[i+1]] }

// Links returns the classified out-links of v, in the adjacency order
// of the underlying graph (ascending neighbor), in a fresh slice.
func (l *Layers) Links(v int) []Link {
	outs := l.g.OutNeighbors(v)
	links := make([]Link, len(outs))
	for i, u := range outs {
		links[i] = Link{To: u, Advancing: l.dist[u] == l.dist[v]-1}
	}
	return links
}

// Advancing returns how many out-links of v decrease the distance —
// the shortest-path out-diversity the deflection engine can exploit.
func (l *Layers) Advancing(v int) int {
	n := 0
	for _, u := range l.g.OutNeighbors(v) {
		if l.dist[u] == l.dist[v]-1 {
			n++
		}
	}
	return n
}

// LayerCache lazily builds and memoizes one Layers per destination.
// The deflection engine resolves every contention through it, so each
// destination pays for its decomposition once per run, and every build
// shares the cache's core.Kernels. Not safe for concurrent use.
type LayerCache struct {
	g  *graph.Graph
	kn *core.Kernels
	m  map[int]*Layers
}

// NewLayerCache returns an empty cache over g.
func NewLayerCache(g *graph.Graph) *LayerCache {
	return &LayerCache{g: g, kn: core.NewKernels(core.KernelConfig{}), m: make(map[int]*Layers)}
}

// For returns the (possibly newly computed) decomposition toward dst.
func (c *LayerCache) For(dst word.Word) (*Layers, error) {
	v := graph.DeBruijnVertex(dst)
	if ly, ok := c.m[v]; ok {
		return ly, nil
	}
	ly, err := newLayers(c.g, dst, c.kn)
	if err != nil {
		return nil, err
	}
	c.m[v] = ly
	return ly, nil
}

// Size returns the number of destinations decomposed so far.
func (c *LayerCache) Size() int { return len(c.m) }
