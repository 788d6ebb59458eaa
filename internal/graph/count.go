package graph

import (
	"fmt"
	"math"
)

// CountShortestPathsFrom returns, for every vertex v, the number of
// distinct shortest paths from src to v along with the distances
// (-1/0 for unreachable). Standard BFS-DAG dynamic programming; counts
// saturate at math.MaxInt64 rather than overflowing (irrelevant at
// this repository's graph sizes but kept safe).
//
// The de Bruijn experiments use the counts as a route-diversity
// measure: pairs with many shortest paths give the wildcard policies
// room to balance load.
func (g *Graph) CountShortestPathsFrom(src int) ([]int64, []int, error) {
	n := g.NumVertices()
	if src < 0 || src >= n {
		return nil, nil, fmt.Errorf("%w: %d", ErrVertexRange, src)
	}
	dist := make([]int, n)
	counts := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	counts[src] = 1
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(int(u)) {
			switch {
			case dist[v] < 0:
				dist[v] = dist[u] + 1
				counts[v] = counts[u]
				queue = append(queue, v)
			case dist[v] == dist[u]+1:
				if counts[v] > math.MaxInt64-counts[u] {
					counts[v] = math.MaxInt64
				} else {
					counts[v] += counts[u]
				}
			}
		}
	}
	return counts, dist, nil
}

// MooreBound returns the largest number of vertices any graph of
// maximum degree deg and diameter diam can have (the Moore bound):
// 1 + deg·Σ_{i=0}^{diam-1}(deg-1)^i. Saturates at MaxInt64. The §1
// claim (via Imase–Itoh) that de Bruijn graphs nearly minimize the
// diameter is quantified against it in experiment E10.
func MooreBound(deg, diam int) int64 {
	if deg < 1 || diam < 1 {
		return 1
	}
	if deg == 1 {
		return 2
	}
	if deg == 2 {
		return int64(2*diam + 1)
	}
	total := int64(1)
	term := int64(deg)
	for i := 0; i < diam; i++ {
		if total > math.MaxInt64-term {
			return math.MaxInt64
		}
		total += term
		if term > math.MaxInt64/int64(deg-1) {
			term = math.MaxInt64
		} else {
			term *= int64(deg - 1)
		}
	}
	return total
}

// MinDiameterFor returns the smallest diameter permitted by the Moore
// bound for a graph with n vertices and maximum degree deg.
func MinDiameterFor(n int64, deg int) int {
	for diam := 1; ; diam++ {
		if MooreBound(deg, diam) >= n {
			return diam
		}
		if diam > 128 {
			return diam // n beyond any practical bound; avoid spinning
		}
	}
}
