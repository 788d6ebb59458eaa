package network

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/word"
)

// Collective operations over the spanning tree — the §1 motivation
// ("the de Bruijn network ... can be used to solve efficiently many
// problems") in executable form. Reduce combines one value per site
// pairwise on the way to a root (N-1 messages, eccentricity-many
// rounds, combining at internal sites instead of shipping everything to
// the root).

// CollectiveResult reports the cost of a collective operation.
type CollectiveResult struct {
	// Messages is the number of link crossings.
	Messages int
	// Rounds is the depth of the schedule (parallel time).
	Rounds int
	// Participants counts contributing sites.
	Participants int
}

// Reduce combines one integer value per site into a single result at
// root using the pairwise-associative function combine, along the BFS
// spanning tree of the live topology: leaves send up, internal sites
// combine their subtree before forwarding. Failed sites neither
// contribute nor forward (their subtrees re-attach via other parents
// only if the BFS tree allows; with failures the reachable live set
// participates).
func (n *Network) Reduce(root word.Word, values map[string]int, combine func(a, b int) int) (int, CollectiveResult, error) {
	if combine == nil {
		return 0, CollectiveResult{}, fmt.Errorf("network: nil combine function")
	}
	rootV, err := n.vertex(root)
	if err != nil {
		return 0, CollectiveResult{}, err
	}
	if n.failed[rootV] {
		return 0, CollectiveResult{}, fmt.Errorf("network: reduce root %v failed", root)
	}
	// BFS tree from the root over live sites (tree edges point
	// child→parent for the reduction flow; the de Bruijn graph is
	// connected, and undirected BFS trees reach every live site
	// whenever the failures stay below the connectivity).
	parent := make([]int32, n.g.NumVertices())
	order := make([]int32, 0, n.g.NumVertices())
	for i := range parent {
		parent[i] = -2
	}
	parent[rootV] = -1
	queue := []int32{int32(rootV)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range n.g.OutNeighbors(int(u)) {
			if parent[v] == -2 && !n.failed[int(v)] {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	// Depth of each site = reduction round at which its value moves up.
	depth := make([]int, n.g.NumVertices())
	maxDepth := 0
	for _, v := range order[1:] {
		depth[v] = depth[parent[v]] + 1
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	// Fold leaves-first (reverse BFS order), accumulating into the
	// parent and accounting one message per tree edge.
	acc := make(map[int32]int, len(order))
	has := make(map[int32]bool, len(order))
	res := CollectiveResult{}
	for _, v := range order {
		w, err := graph.DeBruijnWord(n.cfg.D, n.cfg.K, int(v))
		if err != nil {
			return 0, CollectiveResult{}, err
		}
		if val, ok := values[w.String()]; ok {
			acc[v] = val
			has[v] = true
			res.Participants++
		}
	}
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		if !has[v] {
			continue
		}
		p := parent[v]
		if has[p] {
			acc[p] = combine(acc[p], acc[v])
		} else {
			acc[p] = acc[v]
			has[p] = true
		}
		res.Messages++
		n.linkLoad[[2]int{int(v), int(p)}]++
		n.siteLoad[p]++
	}
	res.Rounds = maxDepth
	if !has[int32(rootV)] {
		return 0, res, fmt.Errorf("network: no values reached the root")
	}
	return acc[int32(rootV)], res, nil
}
