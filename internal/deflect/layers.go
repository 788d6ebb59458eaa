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
// B_0..B_k of the de Bruijn digraph; Layers holds that decomposition
// as one distance per vertex rank, from the closed-form distance
// function, and the tests validate it against BFS on the explicit
// graph.
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

// shape is one DG(d,k) of either kind: n = d^k vertices, ranked.
type shape struct {
	d, k, n  int
	directed bool
}

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
	s := shape{d: dst.Base(), k: dst.Len(), directed: g.Kind() == graph.Directed}
	var err error
	if s.n, err = word.Count(s.d, s.k); err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	if g.NumVertices() != s.n {
		return nil, fmt.Errorf("deflect: graph has %d vertices, DG(%d,%d) needs %d",
			g.NumVertices(), s.d, s.k, s.n)
	}
	return newLayers(g, s, int(dst.MustRank()), core.NewKernels(core.KernelConfig{}))
}

// newLayers builds the decomposition of g, of shape s, toward the
// vertex of rank dst.
func newLayers(g *graph.Graph, s shape, dst int, kn *core.Kernels) (*Layers, error) {
	ly := &Layers{g: g, k: s.k}
	if !s.directed {
		if ly.dist = kn.UndirectedRow(s.d, s.k, dst); ly.dist != nil {
			return ly, nil
		}
	}
	w, err := word.Unrank(s.d, s.k, uint64(dst))
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	ly.dist = make([]uint8, s.n)
	if err := kn.DistanceColumn(w, s.directed, ly.dist); err != nil {
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

// Links returns the classified out-links of v, in the adjacency order
// of the underlying graph (ascending neighbor), in a fresh slice.
func (l *Layers) Links(v int) []Link {
	outs := l.g.OutNeighbors(v)
	links := make([]Link, len(outs))
	for i, u := range outs {
		links[i] = Link{To: u, Advancing: l.dist[u]+1 == l.dist[v]}
	}
	return links
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

// LayerCache lazily builds and memoizes one Layers per destination
// rank. The deflection engine resolves every contention through it, so
// each destination pays for its decomposition once per run, and every
// build shares the cache's core.Kernels: once the shared table of an
// undirected table-eligible graph is built, a miss allocates only the
// Layers header. Not safe for concurrent use.
type LayerCache struct {
	g    *graph.Graph
	s    shape
	kn   *core.Kernels
	m    []*Layers // by destination rank
	size int
}

// NewLayerCache returns an empty cache over DG(d,k), the directed
// graph when directed is set.
func NewLayerCache(d, k int, directed bool) (*LayerCache, error) {
	kind := graph.Undirected
	if directed {
		kind = graph.Directed
	}
	g, err := graph.DeBruijn(kind, d, k)
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	return newLayerCache(g, d, k, core.NewKernels(core.KernelConfig{})), nil
}

// newLayerCache returns an empty cache over g = DG(d,k).
func newLayerCache(g *graph.Graph, d, k int, kn *core.Kernels) *LayerCache {
	s := shape{d: d, k: k, n: g.NumVertices(), directed: g.Kind() == graph.Directed}
	return &LayerCache{g: g, s: s, kn: kn, m: make([]*Layers, s.n)}
}

// For returns the (possibly newly computed) decomposition toward the
// vertex of rank dst.
func (c *LayerCache) For(dst int) (*Layers, error) {
	if ly := c.m[dst]; ly != nil {
		return ly, nil
	}
	ly, err := newLayers(c.g, c.s, dst, c.kn)
	if err != nil {
		return nil, err
	}
	c.m[dst] = ly
	c.size++
	return ly, nil
}

// Size returns the number of destinations decomposed so far.
func (c *LayerCache) Size() int { return c.size }
