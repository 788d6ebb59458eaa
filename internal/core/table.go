package core

import (
	"fmt"

	"repro/internal/word"
)

// Rank-indexed tables (tier T1 of the kernel ladder): when d^k is
// small enough that every (src, dst) pair fits a memory budget, all
// answers precompute into flat arrays indexed by vertex rank and a
// query costs two Rank evaluations plus array reads. Row r is site r's
// classical O(N) forwarding table — the per-site precomputation the
// paper's O(k) next-hop functions make unnecessary — widened to both
// orientations, exact distances, and enough anchor state to
// reconstruct the canonical Algorithm 2 path, so the tier is
// byte-identical to the kernels it caches, not an approximation.
// SelfRoute over NextHopUndirected on a table-tier Kernels is the
// table-forwarding mode of E13.
//
// Tables are immutable once built and shared process-wide through the
// tables store: a (d,k) builds once (asynchronously by default —
// queries fall through to the packed/scratch tiers meanwhile, which
// produce identical answers), and every Kernels whose budget admits
// the size uses the same table.

// tableEntryBytes is the storage per (src, dst) pair: undirected and
// directed distance, next hop, and the canonical route's Anchor (its
// Algorithm 2 line and (s, t, θ)) — all ≤ k ≤ 255 at any
// table-eligible size.
const tableEntryBytes = 7

// tables is the process-wide table store, keyed by (d,k). It bounds
// the bytes of all tables together, whatever the per-engine budgets
// say: when a new (d,k) would overflow the cap, finished tables are
// evicted least-recently-used first, and a table that cannot fit
// stays on the lower tiers.
var tables = newStore[[2]int, *rankTable](64 << 20)

// tableSize returns the byte size of a DG(d,k) pair table and whether
// it is representable at all (d^k small enough to square within
// range; distances, anchors and ranks all fit their encodings).
func tableSize(d, k int) (int64, bool) {
	if k > 255 {
		return 0, false
	}
	n, err := word.Count(d, k)
	if err != nil || n > 1<<20 {
		return 0, false
	}
	return int64(n) * int64(n) * tableEntryBytes, true
}

// rankTable is one (d,k)'s precomputed pair matrix.
type rankTable struct {
	d, k  int
	n     int
	udist []uint8 // undirected distance
	ddist []uint8 // directed distance
	uhop  []uint8 // packed first hop of the canonical undirected path
	uline []uint8 // which Algorithm 2 line builds the path: 6, 8 or 9
	as    []uint8 // winning anchor s (1-based; 0 on line 6)
	at    []uint8 // winning anchor t
	ath   []uint8 // winning anchor θ
}

func (t *rankTable) index(x, y word.Word) int {
	return int(x.MustRank())*t.n + int(y.MustRank())
}

func packHop(h Hop) uint8 {
	v := uint8(h.Type) | h.Digit<<2
	if h.Wildcard {
		v |= 2
	}
	return v
}

func unpackHop(v uint8) Hop {
	return Hop{Type: HopType(v & 1), Digit: v >> 2, Wildcard: v&2 != 0}
}

// nextHop returns the stored first hop of the canonical path.
func (t *rankTable) nextHop(x, y word.Word) Hop {
	return unpackHop(t.uhop[t.index(x, y)])
}

// anchor returns the stored Anchor of pair index i.
func (t *rankTable) anchor(i int) Anchor {
	return Anchor{Line: int(t.uline[i]), S: int(t.as[i]), T: int(t.at[i]), Theta: int(t.ath[i])}
}

// buildRankTable computes DG(d,k)'s full pair matrix, dk = (d,k),
// with the canonical kernels (packed where the alphabet packs, scratch
// otherwise — the table must read identically whoever builds it, so
// the builder's config is fixed). It is the tables store's builder.
func buildRankTable(dk [2]int) (*rankTable, error) {
	d, k := dk[0], dk[1]
	n, err := word.Count(d, k)
	if err != nil {
		return nil, fmt.Errorf("core: table build: %w", err)
	}
	words := make([]word.Word, 0, n)
	if _, err := word.ForEach(d, k, func(w word.Word) bool {
		words = append(words, w)
		return true
	}); err != nil {
		return nil, fmt.Errorf("core: table build: %w", err)
	}
	t := &rankTable{
		d: d, k: k, n: n,
		udist: make([]uint8, n*n),
		ddist: make([]uint8, n*n),
		uhop:  make([]uint8, n*n),
		uline: make([]uint8, n*n),
		as:    make([]uint8, n*n),
		at:    make([]uint8, n*n),
		ath:   make([]uint8, n*n),
	}
	kn := NewKernels(KernelConfig{TableBudget: -1})
	var path Path
	var yd []byte
	for i, x := range words {
		for j, y := range words {
			if i == j {
				continue
			}
			idx := i*n + j
			dd, err := kn.DirectedDistance(x, y)
			if err != nil {
				return nil, fmt.Errorf("core: table build %v->%v: %w", x, y, err)
			}
			t.ddist[idx] = uint8(dd)
			a, err := kn.RouteAnchor(x, y)
			if err != nil {
				return nil, fmt.Errorf("core: table build %v->%v: %w", x, y, err)
			}
			t.uline[idx], t.as[idx], t.at[idx], t.ath[idx] = uint8(a.Line), uint8(a.S), uint8(a.T), uint8(a.Theta)
			yd = y.AppendDigits(yd[:0])
			path = AppendRoute(path[:0], yd, a)
			if len(path) == 0 {
				return nil, fmt.Errorf("core: table build %v->%v: empty path", x, y)
			}
			t.udist[idx] = uint8(len(path))
			t.uhop[idx] = packHop(path[0])
		}
	}
	return t, nil
}
