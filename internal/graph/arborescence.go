package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// Arc-disjoint in-arborescence packing: the structural backbone of the
// fault-routing mode (Chiesa et al.'s deterministic circular routing).
// An in-arborescence rooted at r is a spanning tree whose every arc is
// oriented toward r — vertex v stores one parent, and following
// parents from any vertex reaches r. A family of count such trees is
// arc-disjoint when no arc (v, parent) appears in two trees; routing
// then switches trees on a failed arc, and because each tree loses at
// most one arc per failure, f < count failures always leave some tree
// alive at every vertex.
//
// For an undirected graph, each edge {u,v} contributes the two
// anti-parallel arcs u→v and v→u, used independently: one tree may
// consume u→v while another consumes v→u. On the undirected de Bruijn
// graph DG(d,k), whose minimum degree is 2d-2 ≥ d for k ≥ 2, Edmonds'
// branching theorem guarantees d arc-disjoint in-arborescences per
// root; the builder below finds them greedily with seeded restarts and
// always validates the result, so a returned family is correct by
// construction *and* by check.

// ErrArborescence is wrapped by every packing failure.
var ErrArborescence = errors.New("graph: arborescence packing failed")

// arborescenceAttempts bounds the seeded restarts of one build.
const arborescenceAttempts = 48

// Arborescences builds count arc-disjoint in-arborescences of g rooted
// at root. Tree t of the result is a parent array: parent[v] is the
// vertex v forwards to on its way toward root (the arc v→parent[v] is
// an arc of g — for undirected g, an orientation of an incident edge),
// and parent[root] = -1. The same seed always yields the same family.
func Arborescences(g *Graph, root, count int, seed int64) ([][]int32, error) {
	n := g.NumVertices()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: %d", ErrVertexRange, root)
	}
	if count < 1 {
		return nil, fmt.Errorf("%w: need at least one tree, got %d", ErrArborescence, count)
	}
	for attempt := 0; attempt < arborescenceAttempts; attempt++ {
		trees, ok := packAttempt(g, root, count, seed+int64(attempt)*0x9E3779B97F4A7C)
		if !ok {
			continue
		}
		if err := ValidateArborescences(g, root, trees); err != nil {
			// The greedy packer produced something the validator
			// rejects — a builder bug, not a packing dead end.
			return nil, err
		}
		return trees, nil
	}
	return nil, fmt.Errorf("%w: root %d, %d trees, %d attempts", ErrArborescence, root, count, arborescenceAttempts)
}

// arcCand is one candidate arc v→p for a growing tree: p is already in
// the tree, v may join by taking the arc.
type arcCand struct{ v, p int32 }

// packAttempt runs one seeded round-robin greedy packing. All count
// trees grow simultaneously, one vertex per tree per round, drawing
// candidate arcs from per-tree queues that are filled (in seeded
// random order) whenever a vertex joins a tree. A candidate is
// discarded permanently once its vertex is in the tree or its arc is
// taken by another tree, so every arc is examined at most once per
// tree and an attempt costs O(count·E).
func packAttempt(g *Graph, root, count int, seed int64) ([][]int32, bool) {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))

	// usedArc[g.off[v]+i] marks the arc v→OutNeighbors(v)[i] as
	// consumed by some tree (a directed graph's in-lists leave some
	// entries unused).
	usedArc := make([]bool, len(g.nbr))
	arcIndex := func(v, p int32) int {
		i, _ := slices.BinarySearch(g.OutNeighbors(int(v)), p)
		return int(g.off[v]) + i // callers only pass real arcs
	}

	trees := make([][]int32, count)
	inTree := make([][]bool, count)
	queues := make([][]arcCand, count)
	sizes := make([]int, count)
	// push enqueues every arc v→p (v an in-neighbor of p, so the arc
	// exists and points at p) as a candidate for tree t, in seeded
	// random order so restarts explore different packings.
	push := func(t int, p int32) {
		in := g.InNeighbors(int(p))
		order := rng.Perm(len(in))
		for _, i := range order {
			v := in[i]
			if !inTree[t][v] && !usedArc[arcIndex(v, p)] {
				queues[t] = append(queues[t], arcCand{v: v, p: p})
			}
		}
	}
	for t := 0; t < count; t++ {
		trees[t] = make([]int32, n)
		for v := range trees[t] {
			trees[t][v] = -1
		}
		inTree[t] = make([]bool, n)
		inTree[t][root] = true
		sizes[t] = 1
		push(t, int32(root))
	}

	remaining := count * (n - 1)
	for round := 0; remaining > 0; round++ {
		progress := false
		for i := 0; i < count; i++ {
			t := (round + i) % count
			if sizes[t] == n {
				continue
			}
			var got bool
			for len(queues[t]) > 0 {
				c := queues[t][0]
				queues[t] = queues[t][1:]
				if inTree[t][c.v] {
					continue
				}
				idx := arcIndex(c.v, c.p)
				if usedArc[idx] {
					continue
				}
				usedArc[idx] = true
				trees[t][c.v] = c.p
				inTree[t][c.v] = true
				sizes[t]++
				remaining--
				push(t, c.v)
				got = true
				break
			}
			if got {
				progress = true
			} else if sizes[t] < n {
				// Tree t's candidates are exhausted; no future event
				// can revive them, so this attempt is dead.
				return nil, false
			}
		}
		if !progress {
			return nil, false
		}
	}
	return trees, true
}

// ValidateArborescences checks that trees is a family of arc-disjoint
// spanning in-arborescences of g rooted at root: every tree spans all
// vertices, every parent pointer is a real arc of g, following parents
// always reaches root, and no arc is shared between two trees.
func ValidateArborescences(g *Graph, root int, trees [][]int32) error {
	n := g.NumVertices()
	if root < 0 || root >= n {
		return fmt.Errorf("%w: %d", ErrVertexRange, root)
	}
	used := make(map[[2]int32]int, len(trees)*n)
	depth := make([]int, n)
	for t, parent := range trees {
		if len(parent) != n {
			return fmt.Errorf("%w: tree %d has %d entries, graph has %d vertices", ErrArborescence, t, len(parent), n)
		}
		if parent[root] != -1 {
			return fmt.Errorf("%w: tree %d gives the root %d a parent", ErrArborescence, t, root)
		}
		// depth[v] = -1: unresolved this tree; ≥ 0: hops to root.
		for v := range depth {
			depth[v] = -1
		}
		depth[root] = 0
		for v := 0; v < n; v++ {
			if depth[v] >= 0 {
				continue
			}
			// Walk to the first resolved vertex, then unwind.
			steps := 0
			u := int32(v)
			for depth[u] < 0 {
				p := parent[u]
				if p < 0 || int(p) >= n {
					return fmt.Errorf("%w: tree %d vertex %d has parent %d", ErrArborescence, t, u, p)
				}
				if !g.HasEdge(int(u), int(p)) {
					return fmt.Errorf("%w: tree %d uses %d→%d, not an arc of the graph", ErrArborescence, t, u, p)
				}
				u = p
				if steps++; steps > n {
					return fmt.Errorf("%w: tree %d has a cycle through vertex %d", ErrArborescence, t, v)
				}
			}
			// Unwind: re-walk assigning depths.
			chain := make([]int32, 0, steps)
			u = int32(v)
			for depth[u] < 0 {
				chain = append(chain, u)
				u = parent[u]
			}
			base := depth[u]
			for i := len(chain) - 1; i >= 0; i-- {
				base++
				depth[chain[i]] = base
			}
		}
		for v := 0; v < n; v++ {
			if v == root {
				continue
			}
			arc := [2]int32{int32(v), parent[v]}
			if prev, dup := used[arc]; dup {
				return fmt.Errorf("%w: arc %d→%d in trees %d and %d", ErrArborescence, arc[0], arc[1], prev, t)
			}
			used[arc] = t
		}
	}
	return nil
}
