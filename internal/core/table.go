package core

import (
	"fmt"
	"sync"

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
// Tables are immutable once built and shared process-wide: the store
// is keyed by (d,k), a build runs once (asynchronously by default —
// queries fall through to the packed/scratch tiers meanwhile, which
// produce identical answers), and every Kernels whose budget admits
// the size uses the same table.

// tableEntryBytes is the storage per (src, dst) pair: undirected and
// directed distance, next hop, path side, and the winning anchor's
// (s, t, θ) — all ≤ k ≤ 255 at any table-eligible size.
const tableEntryBytes = 7

// tableStoreCap bounds the total bytes of all tables in the process,
// whatever the per-engine budgets say. When a new (d,k) would
// overflow it, completed tables are evicted least-recently-used
// first; a table too large to ever fit stays on the lower tiers. A
// variable (not a const) so the eviction tests can shrink it.
var tableStoreCap = int64(64 << 20)

// Path-side encoding of rankTable.uside.
const (
	sideL       = 0 // line 8, anchor from the l-part
	sideR       = 1 // line 9, anchor from the r-part
	sideTrivial = 2 // line 6, the trivial k-hop directed path
)

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
	uside []uint8 // which Algorithm 2 line builds the path
	as    []uint8 // winning anchor s (1-based; unused for sideTrivial)
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

// appendRoute reconstructs the canonical Algorithm 2 path from the
// stored side and anchor, allocating exactly once when p is nil.
func (t *rankTable) appendRoute(p Path, x, y word.Word) Path {
	i := t.index(x, y)
	if p == nil {
		p = make(Path, 0, int(t.udist[i]))
	}
	switch t.uside[i] {
	case sideTrivial:
		for j := 0; j < t.k; j++ {
			p = append(p, L(y.Digit(j)))
		}
	case sideL:
		p = appendLine8(p, y, anchor{s: int(t.as[i]), t: int(t.at[i]), theta: int(t.ath[i])})
	default:
		p = appendLine9(p, y, anchor{s: int(t.as[i]), t: int(t.at[i]), theta: int(t.ath[i])})
	}
	return p
}

// buildRankTable computes the full pair matrix with the canonical
// kernels (packed where the alphabet packs, scratch otherwise — the
// table must read identically whoever builds it, so the builder's
// config is fixed).
func buildRankTable(d, k int) (*rankTable, error) {
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
		uside: make([]uint8, n*n),
		as:    make([]uint8, n*n),
		at:    make([]uint8, n*n),
		ath:   make([]uint8, n*n),
	}
	kn := NewKernels(KernelConfig{TableBudget: -1})
	var path Path
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
			aL, aR, err := kn.canonicalAnchors(x, y)
			if err != nil {
				return nil, fmt.Errorf("core: table build %v->%v: %w", x, y, err)
			}
			switch {
			case aL.dist >= k && aR.dist >= k:
				t.uside[idx] = sideTrivial
			case aL.dist <= aR.dist:
				t.uside[idx] = sideL
				t.as[idx], t.at[idx], t.ath[idx] = uint8(aL.s), uint8(aL.t), uint8(aL.theta)
			default:
				t.uside[idx] = sideR
				t.as[idx], t.at[idx], t.ath[idx] = uint8(aR.s), uint8(aR.t), uint8(aR.theta)
			}
			path = appendUndirectedPath(path[:0], y, aL, aR)
			if len(path) == 0 {
				return nil, fmt.Errorf("core: table build %v->%v: empty path", x, y)
			}
			t.udist[idx] = uint8(len(path))
			t.uhop[idx] = packHop(path[0])
		}
	}
	return t, nil
}

// tableEntry is one (d,k) slot of the shared store: done closes when
// the build finishes; t stays nil if it failed. size, lastUse, and
// built are guarded by the store mutex; t is published by the close
// of done.
type tableEntry struct {
	done    chan struct{}
	t       *rankTable
	size    int64
	lastUse int64
	built   bool
}

type tableKey struct{ d, k int }

var tableStore = struct {
	sync.Mutex
	m     map[tableKey]*tableEntry
	bytes int64
	clock int64
}{m: map[tableKey]*tableEntry{}}

// evictTablesLocked frees space for need more bytes by removing
// completed entries in least-recently-used order. In-flight builds
// are never evicted (their goroutine still owns the slot). Reports
// whether the store now has room; callers hold the store mutex.
func evictTablesLocked(need int64) bool {
	for tableStore.bytes+need > tableStoreCap {
		var victimKey tableKey
		var victim *tableEntry
		for key, e := range tableStore.m {
			if !e.built {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimKey = e, key
			}
		}
		if victim == nil {
			return false
		}
		delete(tableStore.m, victimKey)
		tableStore.bytes -= victim.size
	}
	return true
}

// getTable returns the shared DG(d,k) table, starting a build if none
// exists and the global cap (after LRU eviction of idle tables)
// admits it. The second result reports a build still in flight (the
// caller should not memoize its fallback). With wait set, a pending
// build is waited for instead.
func getTable(d, k int, size int64, wait bool) (*rankTable, bool) {
	key := tableKey{d, k}
	tableStore.Lock()
	e := tableStore.m[key]
	if e == nil {
		if size > tableStoreCap || !evictTablesLocked(size) {
			tableStore.Unlock()
			return nil, false
		}
		tableStore.clock++
		e = &tableEntry{done: make(chan struct{}), size: size, lastUse: tableStore.clock}
		tableStore.m[key] = e
		tableStore.bytes += size
		tableStore.Unlock()
		build := func() {
			t, err := buildRankTable(d, k)
			tableStore.Lock()
			if err == nil {
				e.t = t
			} else {
				// A failed build keeps its slot as a zero-byte
				// negative cache so the size isn't charged twice.
				tableStore.bytes -= size
				e.size = 0
			}
			e.built = true
			tableStore.Unlock()
			close(e.done)
		}
		if wait {
			build()
			return e.t, false
		}
		go build()
		return nil, true
	}
	tableStore.clock++
	e.lastUse = tableStore.clock
	tableStore.Unlock()
	select {
	case <-e.done:
		return e.t, false
	default:
	}
	if wait {
		<-e.done
		return e.t, false
	}
	return nil, true
}
