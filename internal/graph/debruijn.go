package graph

import (
	"fmt"
	"math"

	"repro/internal/word"
)

// DeBruijn constructs the de Bruijn graph DG(d,k) of the requested
// kind: N = d^k vertices, one per d-ary word of length k, vertex v
// being the word of rank v. Arcs are the left-shift moves X → X⁻(a)
// (which also realize every right-shift arc X⁺(a) → X); the undirected
// graph drops directions. Redundant arcs — self loops at constant
// words and coincident left/right-shift edges at alternating words —
// are removed, as in the paper.
//
// The lists come from rank arithmetic, with no words: the left shifts
// of rank v are (v·d + a) mod N, a contiguous ascending run, and its
// right shifts a·N/d + v/d ascend in steps of N/d. An undirected
// vertex's neighbours are the two runs merged ascending, with repeats
// and the self-loop dropped; a directed vertex's out-neighbours are
// the left run and its in-neighbours the right run, each minus the
// self-loop. One O(N·d) pass fills one array.
func DeBruijn(kind Kind, d, k int) (*Graph, error) {
	if kind != Directed && kind != Undirected {
		return nil, ErrKind
	}
	n, err := word.Count(d, k)
	if err != nil {
		return nil, fmt.Errorf("graph: DG(%d,%d): %w", d, k, err)
	}
	// Both kinds store at most 2d list entries and two offsets per
	// vertex; every index into the buffer must fit an int32 offset.
	if n > (math.MaxInt32-2)/(2*d+2) {
		return nil, fmt.Errorf("graph: DG(%d,%d) has more links than int32 adjacency offsets number", d, k)
	}
	directed := kind == Directed
	heads := n + 1
	if directed {
		heads *= 2 // in-offsets follow the out-offsets
	}
	buf := make([]int32, heads+2*n*d)
	g := &Graph{kind: kind, d: d, k: k, off: buf[:heads], nbr: buf[heads:]}
	// out and in are the next free slots of nbr: the out-lists from 0,
	// a directed graph's in-lists from n·d.
	out, in := 0, n*d
	if directed {
		g.off[n+1] = int32(in)
	}
	step := n / d
	for v := 0; v < n; v++ {
		lo, r := v*d%n, v/d
		last := -1
		for i, j := 0, 0; i < d || !directed && j < d; {
			u := lo + i
			if i < d && (directed || u <= r+j*step) {
				i++
			} else {
				u = r + j*step
				j++
			}
			if u != v && u != last {
				g.nbr[out] = int32(u)
				out++
			}
			last = u
		}
		g.off[v+1] = int32(out)
		if directed {
			for j := 0; j < d; j++ {
				if u := r + j*step; u != v {
					g.nbr[in] = int32(u)
					in++
				}
			}
			g.off[n+2+v] = int32(in)
		}
	}
	if directed {
		g.nbr, g.edges = g.nbr[:in], out
	} else {
		g.nbr, g.edges = g.nbr[:out], out/2
	}
	return g, nil
}

// DeBruijnVertex returns the vertex number of w in DeBruijn graphs of
// matching d and k (its rank).
func DeBruijnVertex(w word.Word) int { return int(w.MustRank()) }

// DeBruijnWord is the inverse of DeBruijnVertex.
func DeBruijnWord(d, k, v int) (word.Word, error) {
	return word.Unrank(d, k, uint64(v))
}

// DeBruijnDegreeCensusWant predicts the degree census of DG(d,k) after
// redundancy removal, for k ≥ 2:
//
//   - directed: N-d vertices of degree 2d (d in + d out) and the d
//     constant words of degree 2d-2 (self loop removed);
//   - undirected: N-d² vertices of degree 2d, the d²-d alternating
//     words αβαβ… (α≠β) of degree 2d-1 (one left-shift neighbor
//     coincides with a right-shift neighbor), and the d constants of
//     degree 2d-2.
//
// The paper states this census below Figure 1 (the report's rendering
// of the undirected counts is garbled; the values returned here are
// re-derived and verified against enumeration in the tests and in
// experiment E1).
func DeBruijnDegreeCensusWant(kind Kind, d, k int) (map[int]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("graph: census formula needs k ≥ 2, got %d", k)
	}
	n, err := word.Count(d, k)
	if err != nil {
		return nil, err
	}
	census := make(map[int]int)
	add := func(deg, count int) {
		if count > 0 {
			census[deg] += count
		}
	}
	if kind == Directed {
		add(2*d, n-d)
		add(2*d-2, d)
	} else {
		add(2*d, n-d*d)
		add(2*d-1, d*d-d)
		add(2*d-2, d)
	}
	return census, nil
}
