package core

import (
	"fmt"

	"repro/internal/word"
)

// Tier identifies which kernel implementation answers queries for one
// (d,k), selected per graph by Kernels. The ladder, fastest first:
//
//	T1 TierTable   — rank-indexed precomputed tables, O(1) per query,
//	                 when 7·(d^k)² bytes fit the memory budget.
//	T2 TierPacked  — bit-sliced shift-XOR kernels (packed.go) on
//	                 b = ⌈log₂ d⌉ digit planes, any d, when the k·b
//	                 plane bits fit 1024.
//	T3 TierScratch — the byte-digit scratch kernels past that budget:
//	                 Algorithm 4's suffix-tree walk, linear in k where
//	                 the packed probes of periodic pairs grow as k².
//
// Every tier returns byte-identical answers: for a given (d,k) there
// is one canonical result set (distances are Theorem 2's values;
// anchors and paths are the first minimizer in the quadratic sweep's
// (dist, s, t) order, which the packed kernels and the suffix-tree
// walk both reproduce), and each tier reproduces it exactly — and
// equals Algorithm 2's RouteUndirected on every graph.
// internal/check's kernels oracle (exhaustive on small graphs, sampled
// pairs on the multi-word ones) and FuzzKernelTierEquivalence enforce
// this.
type Tier uint8

const (
	// TierScratch is T3, the fallback past the plane budget (scratch.go).
	TierScratch Tier = iota
	// TierPacked is T2, the bit-packed kernels (packed.go).
	TierPacked
	// TierTable is T1, the rank-indexed tables (table.go).
	TierTable
)

// String names the tier as reported by dbstats and the check oracle.
func (t Tier) String() string {
	switch t {
	case TierTable:
		return "table"
	case TierPacked:
		return "packed"
	default:
		return "scratch"
	}
}

// DefaultTableBudget is the per-(d,k) memory budget of the table tier
// when KernelConfig.TableBudget is zero: 1 MiB holds the full pair
// tables of DG(2,8), DG(3,5) or DG(4,4) with room to spare, and one
// table build at this size stays in the low tens of milliseconds.
const DefaultTableBudget = 1 << 20

// KernelConfig selects and parameterizes the kernel tiers.
type KernelConfig struct {
	// TableBudget is the per-(d,k) byte budget of the table tier:
	// DG(d,k) is table-eligible when its 7·(d^k)² pair bytes fit.
	// 0 means DefaultTableBudget; negative disables the tier.
	TableBudget int64
	// SyncTableBuild makes the first query of a table-eligible (d,k)
	// block until its table is built. The default is asynchronous:
	// queries are answered by the packed/scratch tiers while the
	// build runs, which is semantically invisible (identical
	// answers) but makes tier observation racy — tests and
	// benchmarks that pin TierTable set this.
	SyncTableBuild bool
}

func (c KernelConfig) tableBudget() int64 {
	if c.TableBudget == 0 {
		return DefaultTableBudget
	}
	return c.TableBudget
}

// Kernels is the tiered kernel engine: one instance bundles the
// scratch and packed buffers plus the tier-selection memo, and
// dispatches each query to the fastest tier covering its (d,k).
// Construction is cheap; tables are shared process-wide (table.go),
// so many Kernels over the same graphs pay for one build. Not safe
// for concurrent use — give each worker its own.
type Kernels struct {
	cfg KernelConfig
	sc  scratch
	ps  packedScratch

	// Single-entry tier memo: serve workers overwhelmingly stay on
	// one DG(d,k), and resolving a tier can take the table-store
	// lock. Only stable resolutions are memoized (see resolveSlow).
	memoD, memoK int
	memoInfo     tierInfo
}

// tierInfo is one resolved (d,k) → tier decision.
type tierInfo struct {
	tier Tier
	tab  *rankTable // non-nil iff tier == TierTable
}

// NewKernels returns a tiered engine with the given configuration.
func NewKernels(cfg KernelConfig) *Kernels {
	return &Kernels{cfg: cfg, memoD: -1}
}

// Config returns the engine's configuration.
func (kn *Kernels) Config() KernelConfig { return kn.cfg }

// TierFor reports the tier that would answer a DG(d,k) query right
// now. With asynchronous table builds the answer can upgrade from
// TierPacked/TierScratch to TierTable once the build finishes; under
// SyncTableBuild the first call blocks until the table exists, so the
// report is final.
func (kn *Kernels) TierFor(d, k int) Tier { return kn.resolve(d, k).tier }

func (kn *Kernels) resolve(d, k int) tierInfo {
	if d == kn.memoD && k == kn.memoK {
		return kn.memoInfo
	}
	ti, stable := kn.resolveSlow(d, k)
	if stable {
		kn.memoD, kn.memoK, kn.memoInfo = d, k, ti
	}
	return ti
}

// resolveSlow walks the ladder: table if eligible and built, packed
// if the planes fit the budget, scratch otherwise. While an asynchronous
// table build is pending the fallback decision is not memoized, so
// the upgrade is observed on a later query.
func (kn *Kernels) resolveSlow(d, k int) (tierInfo, bool) {
	pending := false
	if size, ok := tableSize(d, k); ok && size <= kn.cfg.tableBudget() {
		tab, err := tables.get([2]int{d, k}, size, kn.cfg.SyncTableBuild, buildRankTable)
		if err == nil {
			return tierInfo{tier: TierTable, tab: tab}, true
		}
		pending = err == errBuilding
	}
	if packedEligible(d, k) {
		return tierInfo{tier: TierPacked}, !pending
	}
	return tierInfo{tier: TierScratch}, !pending
}

// canonicalAnchors returns the anchors that define x→y's path: the
// first minimizer of Theorem 2 in the quadratic sweep's (dist, s, t)
// order. Operands within the plane budget go to the single- or
// multi-word packed kernels, longer ones to the suffix-tree walk,
// which breaks ties in the same order.
func (kn *Kernels) canonicalAnchors(x, y word.Word) (anchor, anchor, error) {
	if k := x.Len(); packedEligible(x.Base(), k) {
		kn.ps.load(x, y)
		var aL, aR anchor
		if packedSingleWord(k) {
			aL, aR = packedAnchors1(kn.ps.x, kn.ps.y, k, kn.lens(k))
		} else {
			aL, aR = packedAnchorsN(kn.ps.scan(), kn.ps.x, kn.ps.y, k)
		}
		return aL, aR, nil
	}
	kn.sc.loadDigits(x, y)
	return kn.sc.treeAnchors(kn.sc.xd, kn.sc.yd)
}

func (kn *Kernels) lens(k int) []int16 {
	if cap(kn.ps.lens) < 2*k-1 {
		kn.ps.lens = make([]int16, 2*k-1)
	}
	return kn.ps.lens[:2*k-1]
}

// DirectedDistance is Property 1 through the tier ladder.
func (kn *Kernels) DirectedDistance(x, y word.Word) (int, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	if x.Equal(y) {
		return 0, nil
	}
	k := x.Len()
	ti := kn.resolve(x.Base(), k)
	switch {
	case ti.tier == TierTable:
		return int(ti.tab.ddist[ti.tab.index(x, y)]), nil
	case ti.tier == TierPacked && packedSingleWord(k):
		kn.ps.load(x, y)
		return k - packedOverlap1(kn.ps.x, kn.ps.y, k), nil
	default:
		return kn.sc.DirectedDistance(x, y)
	}
}

// UndirectedDistance is Theorem 2 through the tier ladder.
func (kn *Kernels) UndirectedDistance(x, y word.Word) (int, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	if x.Equal(y) {
		return 0, nil
	}
	k := x.Len()
	ti := kn.resolve(x.Base(), k)
	switch ti.tier {
	case TierTable:
		return int(ti.tab.udist[ti.tab.index(x, y)]), nil
	case TierPacked:
		kn.ps.load(x, y)
		var dL, dR int
		if packedSingleWord(k) {
			dL, dR = packedDistance1(kn.ps.x, kn.ps.y, k)
		} else {
			dL, dR = packedDistanceN(kn.ps.scan(), kn.ps.x, kn.ps.y, k)
		}
		return clampDist(k, dL, dR), nil
	default:
		return kn.sc.UndirectedDistanceLinear(x, y)
	}
}

// DistanceColumn fills col[v] with the distance from the vertex of
// rank v to dst, for every vertex of DG(d,k): Theorem 2, or
// Property 1 when directed. col must hold d^k entries; every distance
// is at most k, which an enumerable DG(d,k) keeps below 64. The table
// tier ranks dst once and reads the stored column; the other tiers run
// their kernel once per vertex.
func (kn *Kernels) DistanceColumn(dst word.Word, directed bool, col []uint8) error {
	d, k := dst.Base(), dst.Len()
	n, err := word.Count(d, k)
	if err != nil {
		return err
	}
	if len(col) != n {
		return fmt.Errorf("core: distance column has %d entries, DG(%d,%d) has %d vertices", len(col), d, k, n)
	}
	if tab := kn.DistanceTable(d, k, directed); tab != nil {
		for v, i := 0, int(dst.MustRank()); v < n; v, i = v+1, i+n {
			col[v] = tab[i]
		}
		return nil
	}
	distance := kn.UndirectedDistance
	if directed {
		distance = kn.DirectedDistance
	}
	v := 0
	var derr error
	if _, err := word.ForEachInPlace(d, k, func(w word.Word) bool {
		var dv int
		dv, derr = distance(w, dst)
		col[v] = uint8(dv)
		v++
		return derr == nil
	}); err != nil {
		return err
	}
	return derr
}

// DistanceTable returns the shared rank table's N×N distance matrix of
// DG(d,k) by vertex rank, tab[x·N+y] = D(x,y) (Property 1 when
// directed, Theorem 2 otherwise), when the table tier answers DG(d,k)
// right now, and nil otherwise (no table, or its asynchronous build
// still running). The matrix is a read-only view into the table.
func (kn *Kernels) DistanceTable(d, k int, directed bool) []uint8 {
	ti := kn.resolve(d, k)
	switch {
	case ti.tier != TierTable:
		return nil
	case directed:
		return ti.tab.ddist
	default:
		return ti.tab.udist
	}
}

func clampDist(k, dL, dR int) int {
	d := dL
	if dR < d {
		d = dR
	}
	if k < d {
		d = k
	}
	return d
}

// RouteAnchor returns the anchor of the canonical Algorithm 2 path from
// x to y through the tier ladder, with no allocation: the table tier
// reads the stored line and (s, t, θ), the others run their anchor
// search. AppendRoute expands it into RouteUndirected's path. For
// x = y it is the empty path's anchor (line 8, s = 1, t = θ = k).
func (kn *Kernels) RouteAnchor(x, y word.Word) (Anchor, error) {
	if err := validatePair(x, y); err != nil {
		return Anchor{}, err
	}
	k := x.Len()
	if x.Equal(y) {
		return sameAnchor(k), nil
	}
	ti := kn.resolve(x.Base(), k)
	if ti.tier == TierTable {
		return ti.tab.anchor(ti.tab.index(x, y)), nil
	}
	aL, aR, err := kn.canonicalAnchors(x, y)
	if err != nil {
		return Anchor{}, err
	}
	return anchorOf(k, aL, aR), nil
}

// RouteAnchorDirected returns Algorithm 1's anchor for x to y: line 1
// with the overlap l = k − D→(x,y), through the tier ladder's directed
// distance.
func (kn *Kernels) RouteAnchorDirected(x, y word.Word) (Anchor, error) {
	dist, err := kn.DirectedDistance(x, y)
	if err != nil {
		return Anchor{}, err
	}
	return Anchor{Line: 1, L: y.Len() - dist}, nil
}

// RouteUndirected is Algorithm 2 through the tier ladder: RouteAnchor
// expanded by AppendRoute. Only the returned path is allocated.
func (kn *Kernels) RouteUndirected(x, y word.Word) (Path, error) {
	a, err := kn.RouteAnchor(x, y)
	if err != nil {
		return nil, err
	}
	kn.sc.yd = y.AppendDigits(kn.sc.yd[:0])
	return AppendRoute(make(Path, 0, a.hops(y.Len())), kn.sc.yd, a), nil
}

// NextHopUndirected returns the first hop of the canonical Algorithm 2
// path with zero allocation.
func (kn *Kernels) NextHopUndirected(x, y word.Word) (Hop, bool, error) {
	if err := validatePair(x, y); err != nil {
		return Hop{}, false, err
	}
	if x.Equal(y) {
		return Hop{}, false, nil
	}
	ti := kn.resolve(x.Base(), x.Len())
	if ti.tier == TierTable {
		return ti.tab.nextHop(x, y), true, nil
	}
	a, err := kn.RouteAnchor(x, y)
	if err != nil {
		return Hop{}, false, err
	}
	// The anchor's path goes into the scratch hop buffer, so next-hop
	// queries do not allocate.
	kn.sc.yd = y.AppendDigits(kn.sc.yd[:0])
	kn.sc.path = AppendRoute(kn.sc.path[:0], kn.sc.yd, a)
	if len(kn.sc.path) == 0 {
		return Hop{}, false, fmt.Errorf("core: empty route for distinct vertices %v, %v", x, y)
	}
	return kn.sc.path[0], true, nil
}

// NextHopDirected returns the optimal Algorithm 1 next hop with zero
// allocation.
func (kn *Kernels) NextHopDirected(x, y word.Word) (Hop, bool, error) {
	dist, err := kn.DirectedDistance(x, y)
	if err != nil || dist == 0 {
		return Hop{}, false, err
	}
	return L(y.Digit(y.Len() - dist)), true, nil
}
