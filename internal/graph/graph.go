// Package graph provides the graph substrate of the reproduction:
// adjacency-list directed and undirected graphs, breadth-first search
// (the baseline shortest-path oracle the paper's distance functions are
// verified against), diameter and degree statistics, connectivity,
// vertex-disjoint paths, and Graphviz export for Figure 1.
package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
	ErrSelfLoop    = errors.New("graph: self loop rejected")
)

// Graph is a simple graph (no self loops, no parallel edges): the
// paper's convention after "removing the redundant arcs". Vertices are
// 0..N-1; optional string labels name them (de Bruijn words).
type Graph struct {
	kind   Kind
	adj    [][]int32 // out-neighbors (directed) or neighbors (undirected)
	radj   [][]int32 // in-neighbors; nil for undirected
	labels []string
	edges  int
}

// New returns an empty graph with n vertices.
func New(kind Kind, n int) (*Graph, error) {
	if kind != Directed && kind != Undirected {
		return nil, ErrKind
	}
	if n < 1 {
		return nil, fmt.Errorf("graph: need at least one vertex, got %d", n)
	}
	g := &Graph{kind: kind, adj: make([][]int32, n)}
	if kind == Directed {
		g.radj = make([][]int32, n)
	}
	return g, nil
}

// Kind returns whether the graph is directed.
func (g *Graph) Kind() Kind { return g.kind }

// NumVertices returns N.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of arcs (directed) or edges (undirected)
// after deduplication.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge inserts the arc u→v (directed) or edge {u,v} (undirected).
// Self loops are rejected and duplicates are ignored, mirroring the
// paper's removal of redundant arcs.
func (g *Graph) AddEdge(u, v int) error {
	n := len(g.adj)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, n)
	}
	if u == v {
		return ErrSelfLoop
	}
	if g.hasArc(u, v) {
		return nil
	}
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	if g.kind == Directed {
		g.radj[v] = insertSorted(g.radj[v], int32(u))
	} else {
		g.adj[v] = insertSorted(g.adj[v], int32(u))
	}
	g.edges++
	return nil
}

func (g *Graph) hasArc(u, v int) bool {
	lst := g.adj[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	return i < len(lst) && lst[i] == int32(v)
}

func insertSorted(lst []int32, v int32) []int32 {
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= v })
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = v
	return lst
}

// HasEdge reports whether the arc u→v (or edge {u,v}) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	return g.hasArc(u, v)
}

// OutNeighbors returns the sorted out-neighbors of v (its neighbors,
// for undirected graphs). The returned slice must not be modified.
func (g *Graph) OutNeighbors(v int) []int32 { return g.adj[v] }

// InNeighbors returns the sorted in-neighbors of v. For undirected
// graphs this equals OutNeighbors.
func (g *Graph) InNeighbors(v int) []int32 {
	if g.kind == Undirected {
		return g.adj[v]
	}
	return g.radj[v]
}

// Degree returns the paper's notion of vertex degree: the number of
// incident edges — out-degree plus in-degree for directed graphs.
func (g *Graph) Degree(v int) int {
	if g.kind == Directed {
		return len(g.adj[v]) + len(g.radj[v])
	}
	return len(g.adj[v])
}

// DegreeCensus returns a histogram degree → number of vertices, the
// quantity discussed below Figure 1 of the paper.
func (g *Graph) DegreeCensus() map[int]int {
	census := make(map[int]int)
	for v := range g.adj {
		census[g.Degree(v)]++
	}
	return census
}

// SetLabel assigns a textual name to vertex v.
func (g *Graph) SetLabel(v int, label string) error {
	if v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: %d", ErrVertexRange, v)
	}
	if g.labels == nil {
		g.labels = make([]string, len(g.adj))
	}
	g.labels[v] = label
	return nil
}

// Label returns the textual name of v, or its number if unnamed.
func (g *Graph) Label(v int) string {
	if g.labels != nil && g.labels[v] != "" {
		return g.labels[v]
	}
	return fmt.Sprintf("%d", v)
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
	n := len(g.adj)
	if src < 0 || src >= n {
		return nil, fmt.Errorf("%w: %d", ErrVertexRange, src)
	}
	if blocked[src] {
		return nil, fmt.Errorf("graph: source %d is blocked", src)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 && !blocked[int(v)] {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, nil
}

// BFSFromAvoidingArcs returns the distance from src to every vertex
// using only arcs u→v for which failed(u, v) is false, with -1 for
// unreachable vertices. For undirected graphs each edge {u,v} is two
// independent arcs, matching the fault-routing failure model: failing
// u→v does not fail v→u unless the caller's predicate says so. A nil
// predicate makes this BFSFrom.
func (g *Graph) BFSFromAvoidingArcs(src int, failed func(u, v int) bool) ([]int, error) {
	n := len(g.adj)
	if src < 0 || src >= n {
		return nil, fmt.Errorf("%w: %d", ErrVertexRange, src)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 && (failed == nil || !failed(int(u), int(v))) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, nil
}

// BFSToAvoidingArcs returns, for every vertex u, the length of the
// shortest path from u to dst using only arcs the predicate allows
// (-1 when no such path exists). One call answers "how far is every
// source from this destination on the faulted graph", which is how
// the faultroutes oracle prices a whole failure set with a single
// search instead of one BFS per source.
func (g *Graph) BFSToAvoidingArcs(dst int, failed func(u, v int) bool) ([]int, error) {
	n := len(g.adj)
	if dst < 0 || dst >= n {
		return nil, fmt.Errorf("%w: %d", ErrVertexRange, dst)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(dst))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		// u reaches dst through v via the arc u→v.
		for _, u := range g.InNeighbors(int(v)) {
			if dist[u] < 0 && (failed == nil || !failed(int(u), int(v))) {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist, nil
}

// SampleArcs draws size distinct arcs u→v of g: a uniform vertex u,
// then a uniform out-neighbour v (vertices without one are redrawn).
// It is the arc-failure sampler of the faultroutes oracle and E26, so
// both price the same failure sets for a given rng stream.
func (g *Graph) SampleArcs(size int, rng *rand.Rand) map[[2]int]bool {
	arcs := make(map[[2]int]bool, size)
	for len(arcs) < size {
		u := rng.Intn(len(g.adj))
		nbs := g.adj[u]
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
	n := len(g.adj)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("%w: (%d,%d)", ErrVertexRange, src, dst)
	}
	if blocked[src] || blocked[dst] {
		return nil, nil
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[src] = -1
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if int(u) == dst {
			break
		}
		for _, v := range g.adj[u] {
			if parent[v] == -2 && !blocked[int(v)] {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	if parent[dst] == -2 {
		return nil, nil
	}
	var rev []int
	for v := int32(dst); v != -1; v = parent[v] {
		rev = append(rev, int(v))
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
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
	best := 0
	for v := range g.adj {
		dist, err := g.BFSFrom(v)
		if err != nil {
			return 0, err
		}
		for _, d := range dist {
			if d < 0 {
				return 0, errors.New("graph: not connected, diameter undefined")
			}
			if d > best {
				best = d
			}
		}
	}
	return best, nil
}

// AvgDistance computes the mean distance over all ordered pairs of
// distinct vertices via all-pairs BFS. Returns an error on
// disconnected graphs.
func (g *Graph) AvgDistance() (float64, error) {
	var sum float64
	n := len(g.adj)
	if n < 2 {
		return 0, nil
	}
	for v := range g.adj {
		dist, err := g.BFSFrom(v)
		if err != nil {
			return 0, err
		}
		for u, d := range dist {
			if u == v {
				continue
			}
			if d < 0 {
				return 0, errors.New("graph: not connected, average distance undefined")
			}
			sum += float64(d)
		}
	}
	return sum / float64(n*(n-1)), nil
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
	n := len(g.adj)
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
	if !g.reachesAll(src, g.adj, blocked, alive) {
		return false
	}
	if g.kind == Directed {
		return g.reachesAll(src, g.radj, blocked, alive)
	}
	return true
}

func (g *Graph) reachesAll(src int, adj [][]int32, blocked map[int]bool, alive int) bool {
	seen := make([]bool, len(adj))
	seen[src] = true
	queue := []int32{int32(src)}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] && !blocked[int(v)] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == alive
}

// VertexDisjointPaths returns the maximum number of internally
// vertex-disjoint paths from s to t (s ≠ t, not adjacent via a direct
// edge counting separately per Menger), computed by unit-capacity
// max-flow on the vertex-split graph. This lower-bounds the number of
// vertex failures needed to disconnect t from s.
func (g *Graph) VertexDisjointPaths(s, t int) (int, error) {
	n := len(g.adj)
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
		for _, v := range g.adj[u] {
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
	for v := range g.adj {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, g.Label(v))
	}
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if g.kind == Undirected && int(v) < u {
				continue // emit each undirected edge once
			}
			fmt.Fprintf(&b, "  n%d%sn%d;\n", u, arrow, v)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
