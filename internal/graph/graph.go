// Package graph provides the graph substrate of the reproduction: the
// de Bruijn graph DG(d,k), directed or undirected, as an immutable
// compressed-sparse-row adjacency that DeBruijn builds by rank
// arithmetic into one array; and on it breadth-first search (the
// baseline shortest-path oracle the paper's distance functions are
// verified against), diameter and degree statistics, connectivity,
// vertex-disjoint paths, and Graphviz export for Figure 1.
package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/word"
)

// Kind discriminates directed from undirected graphs.
type Kind int

const (
	// Directed graphs store arcs; Degree is in-degree + out-degree.
	Directed Kind = iota + 1
	// Undirected graphs store symmetric edges.
	Undirected
)

func (k Kind) String() string {
	switch k {
	case Directed:
		return "directed"
	case Undirected:
		return "undirected"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors returned by constructors and accessors.
var (
	ErrVertexRange = errors.New("graph: vertex out of range")
	ErrKind        = errors.New("graph: invalid kind")
)

// Graph is an immutable simple graph (no self loops, no parallel
// edges): the paper's convention after "removing the redundant arcs".
// Vertices are 0..N-1. Adjacency is compressed sparse rows carved from
// one []int32: the sorted out-neighbours of v are nbr[off[v]:off[v+1]].
// A directed graph keeps its sorted in-neighbours the same way in the
// second half of off, whose offsets point past the out-lists in nbr.
// A graph built by DeBruijn names vertex v by the word of rank v.
type Graph struct {
	kind     Kind
	d, k     int // DG(d,k) for Label; d = 0 on an unlabelled graph
	off, nbr []int32
	edges    int
}

// Kind returns whether the graph is directed.
func (g *Graph) Kind() Kind { return g.kind }

// NumVertices returns N.
func (g *Graph) NumVertices() int {
	if g.kind == Directed {
		return len(g.off)/2 - 1
	}
	return len(g.off) - 1
}

// NumEdges returns the number of arcs (directed) or edges (undirected).
func (g *Graph) NumEdges() int { return g.edges }

// HasEdge reports whether the arc u→v (or edge {u,v}) exists.
func (g *Graph) HasEdge(u, v int) bool {
	n := g.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	_, ok := slices.BinarySearch(g.OutNeighbors(u), int32(v))
	return ok
}

// OutNeighbors returns the sorted out-neighbors of v (its neighbors,
// for undirected graphs). The returned slice must not be modified.
func (g *Graph) OutNeighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// InNeighbors returns the sorted in-neighbors of v. For undirected
// graphs this equals OutNeighbors.
func (g *Graph) InNeighbors(v int) []int32 {
	if g.kind == Undirected {
		return g.OutNeighbors(v)
	}
	in := g.off[len(g.off)/2:]
	return g.nbr[in[v]:in[v+1]]
}

// Degree returns the paper's notion of vertex degree: the number of
// incident edges — out-degree plus in-degree for directed graphs.
func (g *Graph) Degree(v int) int {
	if g.kind == Directed {
		return len(g.OutNeighbors(v)) + len(g.InNeighbors(v))
	}
	return len(g.OutNeighbors(v))
}

// DegreeCensus returns a histogram degree → number of vertices, the
// quantity discussed below Figure 1 of the paper.
func (g *Graph) DegreeCensus() map[int]int {
	census := make(map[int]int)
	for v := 0; v < g.NumVertices(); v++ {
		census[g.Degree(v)]++
	}
	return census
}

// Label returns the word of v on a de Bruijn graph, its number
// otherwise.
func (g *Graph) Label(v int) string {
	if g.d == 0 {
		return strconv.Itoa(v)
	}
	w, err := word.Unrank(g.d, g.k, uint64(v))
	if err != nil {
		panic(err) // v is not a vertex of DG(d,k)
	}
	return w.String()
}

// BFSFrom returns the distance from src to every vertex along arcs
// (out-edges), with -1 for unreachable vertices.
func (g *Graph) BFSFrom(src int) ([]int, error) {
	return g.BFSFromAvoiding(src, nil)
}

// BFSFromAvoiding is BFSFrom with a set of failed (blocked) vertices
// that the search may not enter; src itself must not be blocked. The
// fault-tolerance experiments route around failed sites with it.
func (g *Graph) BFSFromAvoiding(src int, blocked map[int]bool) ([]int, error) {
	n := g.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("%w: %d", ErrVertexRange, src)
	}
	if blocked[src] {
		return nil, fmt.Errorf("graph: source %d is blocked", src)
	}
	dist := make([]int, n)
	g.bfs(src, g.OutNeighbors, avoiding(blocked), dist, nil)
	return dist, nil
}

// BFSToAvoidingArcs returns, for every vertex u, the length of the
// shortest path from u to dst using only arcs u→v for which failed(u,
// v) is false (-1 when no such path exists). For undirected graphs
// each edge {u,v} is two independent arcs, matching the fault-routing
// failure model: failing u→v does not fail v→u unless the predicate
// says so; a nil predicate fails nothing. One call answers "how far is
// every source from this destination on the faulted graph", which is
// how the faultroutes oracle prices a whole failure set with a single
// search instead of one BFS per source.
func (g *Graph) BFSToAvoidingArcs(dst int, failed func(u, v int) bool) ([]int, error) {
	n := g.NumVertices()
	if dst < 0 || dst >= n {
		return nil, fmt.Errorf("%w: %d", ErrVertexRange, dst)
	}
	// The reverse search enters u from v through the arc u→v.
	var skip func(v, u int) bool
	if failed != nil {
		skip = func(v, u int) bool { return failed(u, v) }
	}
	dist := make([]int, n)
	g.bfs(dst, g.InNeighbors, skip, dist, nil)
	return dist, nil
}

// bfs is the one breadth-first loop behind every search of this file.
// From src it enters v from u for each v in next(u), unless skip is
// non-nil and skip(u, v) holds (a blocked vertex is one whose entering
// arcs are all skipped). It fills dist (length N) with each vertex's
// hop count, -1 where unreached, and, when parent is non-nil, the
// vertex each one was first entered from (-1 at src and where
// unreached). It returns the number of vertices reached.
func (g *Graph) bfs(src int, next func(int) []int32, skip func(u, v int) bool, dist []int, parent []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	for i := range parent {
		parent[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 1, len(dist))
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range next(int(u)) {
			if dist[v] < 0 && (skip == nil || !skip(int(u), int(v))) {
				dist[v] = dist[u] + 1
				if parent != nil {
					parent[v] = u
				}
				queue = append(queue, v)
			}
		}
	}
	return len(queue)
}

// avoiding turns a blocked vertex set into bfs's arc filter: every
// arc into a blocked vertex is skipped.
func avoiding(blocked map[int]bool) func(u, v int) bool {
	if len(blocked) == 0 {
		return nil
	}
	return func(_, v int) bool { return blocked[v] }
}

// SampleArcs draws size distinct arcs u→v of g: a uniform vertex u,
// then a uniform out-neighbour v (vertices without one are redrawn).
// It is the arc-failure sampler of the faultroutes oracle and E26, so
// both price the same failure sets for a given rng stream.
func (g *Graph) SampleArcs(size int, rng *rand.Rand) map[[2]int]bool {
	arcs := make(map[[2]int]bool, size)
	for len(arcs) < size {
		u := rng.Intn(g.NumVertices())
		nbs := g.OutNeighbors(u)
		if len(nbs) == 0 {
			continue
		}
		arcs[[2]int{u, int(nbs[rng.Intn(len(nbs))])}] = true
	}
	return arcs
}

// ShortestPath returns one shortest vertex path from src to dst
// (inclusive of both), or nil if dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) ([]int, error) {
	return g.ShortestPathAvoiding(src, dst, nil)
}

// ShortestPathAvoiding is ShortestPath restricted to vertices outside
// the blocked set.
func (g *Graph) ShortestPathAvoiding(src, dst int, blocked map[int]bool) ([]int, error) {
	n := g.NumVertices()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("%w: (%d,%d)", ErrVertexRange, src, dst)
	}
	if blocked[src] || blocked[dst] {
		return nil, nil
	}
	dist, parent := make([]int, n), make([]int32, n)
	g.bfs(src, g.OutNeighbors, avoiding(blocked), dist, parent)
	if dist[dst] < 0 {
		return nil, nil
	}
	path := make([]int, dist[dst]+1)
	for i, v := len(path)-1, int32(dst); i >= 0; i, v = i-1, parent[v] {
		path[i] = int(v)
	}
	return path, nil
}

// Distance returns the length of a shortest path from u to v, or -1
// if unreachable.
func (g *Graph) Distance(u, v int) (int, error) {
	dist, err := g.BFSFrom(u)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= len(dist) {
		return 0, fmt.Errorf("%w: %d", ErrVertexRange, v)
	}
	return dist[v], nil
}

// Diameter computes the maximum finite distance over all ordered pairs
// by running a BFS from every vertex: O(N(N+E)). Returns an error if
// the graph is not (strongly) connected.
func (g *Graph) Diameter() (int, error) {
	dia, _, err := g.DistanceStats()
	return dia, err
}

// AvgDistance computes the mean distance over all ordered pairs of
// distinct vertices via all-pairs BFS. Returns an error on
// disconnected graphs.
func (g *Graph) AvgDistance() (float64, error) {
	_, mean, err := g.DistanceStats()
	return mean, err
}

// DistanceStats returns the diameter and the mean distance over all
// ordered pairs of distinct vertices (0 below two vertices) from one
// all-pairs BFS sweep: O(N(N+E)). Returns an error if the graph is not
// (strongly) connected.
func (g *Graph) DistanceStats() (diameter int, mean float64, err error) {
	n := g.NumVertices()
	sum := 0
	for v := 0; v < n; v++ {
		dist, err := g.BFSFrom(v)
		if err != nil {
			return 0, 0, err
		}
		for _, d := range dist {
			if d < 0 {
				return 0, 0, errors.New("graph: not connected, distances undefined")
			}
			sum += d
			diameter = max(diameter, d)
		}
	}
	if n < 2 {
		return diameter, 0, nil
	}
	return diameter, float64(sum) / float64(n*(n-1)), nil
}

// IsConnected reports connectivity: strong connectivity for directed
// graphs (every vertex reaches every other along arcs), ordinary
// connectivity for undirected ones.
func (g *Graph) IsConnected() bool {
	return g.isConnectedAvoiding(nil)
}

// IsConnectedAvoiding reports whether the graph restricted to vertices
// outside blocked is (strongly) connected. Used by the Pradhan–Reddy
// fault-tolerance experiment (E8).
func (g *Graph) IsConnectedAvoiding(blocked map[int]bool) bool {
	return g.isConnectedAvoiding(blocked)
}

func (g *Graph) isConnectedAvoiding(blocked map[int]bool) bool {
	n := g.NumVertices()
	src := -1
	alive := 0
	for v := 0; v < n; v++ {
		if !blocked[v] {
			alive++
			if src < 0 {
				src = v
			}
		}
	}
	if alive <= 1 {
		return true
	}
	dist := make([]int, n)
	if g.bfs(src, g.OutNeighbors, avoiding(blocked), dist, nil) != alive {
		return false
	}
	if g.kind == Directed {
		return g.bfs(src, g.InNeighbors, avoiding(blocked), dist, nil) == alive
	}
	return true
}

// VertexDisjointPaths returns the maximum number of internally
// vertex-disjoint paths from s to t (s ≠ t, not adjacent via a direct
// edge counting separately per Menger), computed by unit-capacity
// max-flow on the vertex-split graph. This lower-bounds the number of
// vertex failures needed to disconnect t from s.
func (g *Graph) VertexDisjointPaths(s, t int) (int, error) {
	n := g.NumVertices()
	if s < 0 || s >= n || t < 0 || t >= n {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrVertexRange, s, t)
	}
	if s == t {
		return 0, errors.New("graph: disjoint paths need distinct endpoints")
	}
	// Vertex splitting: v_in = 2v, v_out = 2v+1, capacity-1 arc
	// v_in→v_out for internal vertices, infinite for s and t. Each
	// graph arc u→v becomes u_out→v_in (both directions when
	// undirected).
	type edge struct {
		to, rev int32
		cap     int32
	}
	adj := make([][]edge, 2*n)
	addFlowEdge := func(u, v, c int) {
		adj[u] = append(adj[u], edge{to: int32(v), rev: int32(len(adj[v])), cap: int32(c)})
		adj[v] = append(adj[v], edge{to: int32(u), rev: int32(len(adj[u]) - 1), cap: 0})
	}
	for v := 0; v < n; v++ {
		c := 1
		if v == s || v == t {
			c = n // effectively infinite
		}
		addFlowEdge(2*v, 2*v+1, c)
	}
	// Each stored arc u→v becomes u_out→v_in; undirected adjacency is
	// symmetric, so both directions of every edge are covered.
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(int(u)) {
			addFlowEdge(2*u+1, 2*int(v), 1)
		}
	}
	source, sink := 2*s+1, 2*t
	// Edmonds–Karp.
	flow := 0
	for {
		parentEdge := make([]int32, 2*n)
		parentNode := make([]int32, 2*n)
		for i := range parentNode {
			parentNode[i] = -2
		}
		parentNode[source] = -1
		queue := []int32{int32(source)}
		for len(queue) > 0 && parentNode[sink] == -2 {
			u := queue[0]
			queue = queue[1:]
			for ei, e := range adj[u] {
				if e.cap > 0 && parentNode[e.to] == -2 {
					parentNode[e.to] = u
					parentEdge[e.to] = int32(ei)
					queue = append(queue, e.to)
				}
			}
		}
		if parentNode[sink] == -2 {
			break
		}
		for v := int32(sink); parentNode[v] != -1; v = parentNode[v] {
			u := parentNode[v]
			e := &adj[u][parentEdge[v]]
			e.cap--
			adj[e.to][e.rev].cap++
		}
		flow++
		if flow > 4*n {
			return 0, errors.New("graph: flow runaway (internal error)")
		}
	}
	return flow, nil
}

// DOT renders the graph in Graphviz format, with de Bruijn word labels
// when present; the Figure 1 regeneration path.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	arrow := " -> "
	if g.kind == Undirected {
		b.WriteString("graph ")
		arrow = " -- "
	} else {
		b.WriteString("digraph ")
	}
	fmt.Fprintf(&b, "%q {\n", name)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, g.Label(v))
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(int(u)) {
			if g.kind == Undirected && int(v) < u {
				continue // emit each undirected edge once
			}
			fmt.Fprintf(&b, "  n%d%sn%d;\n", u, arrow, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
