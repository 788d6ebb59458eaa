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
//	T2 TierPacked  — bit-packed shift-XOR kernels (packed.go) for
//	                 d ≤ 4 with k·b ≤ 1024 packed bits.
//	T3 TierScratch — the byte-digit scratch kernels, any (d,k).
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
	// TierScratch is T3, the general fallback (scratch.go).
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
	// DisablePacked turns off the bit-packed tier (T2); eligible
	// queries fall through to the scratch kernels. Answers do not
	// change — the scratch path reproduces the packed tier's
	// canonical anchors.
	DisablePacked bool
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
	fr  Frame

	// Single-entry tier memo: serve workers overwhelmingly stay on
	// one DG(d,k), and resolving a tier can take the table-store
	// lock. Only stable resolutions are memoized (see resolveSlow).
	memoD, memoK int
	memoInfo     tierInfo
}

// tierInfo is one resolved (d,k) → tier decision.
type tierInfo struct {
	tier   Tier
	tab    *rankTable // non-nil iff tier == TierTable
	b      int        // packed bits per digit (tier == TierPacked)
	single bool       // packed operands fit one uint64
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
// if the alphabet packs, scratch otherwise. While an asynchronous
// table build is pending the fallback decision is not memoized, so
// the upgrade is observed on a later query.
func (kn *Kernels) resolveSlow(d, k int) (tierInfo, bool) {
	pending := false
	if size, ok := tableSize(d, k); ok && size <= kn.cfg.tableBudget() {
		tab, bldg := getTable(d, k, size, kn.cfg.SyncTableBuild)
		if tab != nil {
			return tierInfo{tier: TierTable, tab: tab}, true
		}
		pending = bldg
	}
	if !kn.cfg.DisablePacked && packedEligible(d, k) {
		return tierInfo{tier: TierPacked, b: word.PackedBits(d), single: packedSingleWord(d, k)}, !pending
	}
	return tierInfo{tier: TierScratch}, !pending
}

// canonicalAnchors returns the anchors that define x→y's path: the
// first minimizer of Theorem 2 in the quadratic sweep's (dist, s, t)
// order. Packed operands go to the packed kernels, everything else to
// the suffix-tree walk, which breaks ties in the same order.
func (kn *Kernels) canonicalAnchors(x, y word.Word) (anchor, anchor, error) {
	d, k := x.Base(), x.Len()
	if !kn.cfg.DisablePacked && packedEligible(d, k) {
		kn.ps.load(x, y)
		aL, aR := kn.packedAnchors(kn.ps.x, kn.ps.y, k, word.PackedBits(d))
		return aL, aR, nil
	}
	kn.sc.loadDigits(x, y)
	return kn.sc.treeAnchors(kn.sc.xd, kn.sc.yd)
}

// packedAnchors runs the single- or multi-word anchor kernel on
// packed operands.
func (kn *Kernels) packedAnchors(x, y []uint64, k, b int) (anchor, anchor) {
	if len(x) == 1 {
		return packedAnchors1(x[0], y[0], k, b, kn.lens(k))
	}
	return packedAnchorsN(x, y, k, b)
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
	case ti.tier == TierPacked && ti.single:
		kn.ps.load(x, y)
		return k - packedOverlap1(kn.ps.x[0], kn.ps.y[0], k, ti.b), nil
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
		if ti.single {
			dL, dR = packedDistance1(kn.ps.x[0], kn.ps.y[0], k, ti.b)
		} else {
			dL, dR = packedDistanceN(kn.ps.x, kn.ps.y, k, ti.b)
		}
		return clampDist(k, dL, dR), nil
	default:
		return kn.sc.UndirectedDistanceLinear(x, y)
	}
}

// DistanceColumn fills col[v] with the distance from the vertex of
// rank v to dst, for every vertex of DG(d,k): Theorem 2, or
// Property 1 when directed. col must hold d^k entries. The table tier
// ranks dst once and reads the stored column; the other tiers run
// their kernel once per vertex.
func (kn *Kernels) DistanceColumn(dst word.Word, directed bool, col []int32) error {
	d, k := dst.Base(), dst.Len()
	n, err := word.Count(d, k)
	if err != nil {
		return err
	}
	if len(col) != n {
		return fmt.Errorf("core: distance column has %d entries, DG(%d,%d) has %d vertices", len(col), d, k, n)
	}
	if ti := kn.resolve(d, k); ti.tier == TierTable {
		dist := ti.tab.udist
		if directed {
			dist = ti.tab.ddist
		}
		for v, i := 0, int(dst.MustRank()); v < n; v, i = v+1, i+n {
			col[v] = int32(dist[i])
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
		col[v] = int32(dv)
		v++
		return derr == nil
	}); err != nil {
		return err
	}
	return derr
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

// RouteUndirected is Algorithm 2 through the tier ladder; only the
// returned path is allocated.
func (kn *Kernels) RouteUndirected(x, y word.Word) (Path, error) {
	if err := validatePair(x, y); err != nil {
		return nil, err
	}
	if x.Equal(y) {
		return Path{}, nil
	}
	ti := kn.resolve(x.Base(), x.Len())
	if ti.tier == TierTable {
		return ti.tab.appendRoute(nil, x, y), nil
	}
	aL, aR, err := kn.canonicalAnchors(x, y)
	if err != nil {
		return nil, err
	}
	return buildUndirectedPath(y, aL, aR), nil
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
	aL, aR, err := kn.canonicalAnchors(x, y)
	if err != nil {
		return Hop{}, false, err
	}
	return kn.firstHop(x, y, aL, aR)
}

// firstHop materializes the anchors' path into the scratch hop buffer
// and returns its first hop, so next-hop queries do not allocate.
func (kn *Kernels) firstHop(x, y word.Word, aL, aR anchor) (Hop, bool, error) {
	kn.sc.path = appendUndirectedPath(kn.sc.path[:0], y, aL, aR)
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

// Frame returns the engine's reusable batch frame, reset to empty.
// The frame shares the engine's buffers; use it from one goroutine,
// and do not interleave two frames on one engine.
func (kn *Kernels) Frame() *Frame {
	kn.fr.kn = kn
	kn.fr.reset()
	return &kn.fr
}

// Frame is batch-aware evaluation: Add packs each sub-query's
// operands once up front — deduplicating against the previous
// sub-query, so a batch walking one destination set packs each
// operand once — and the per-index evaluators reuse the packed forms
// instead of re-packing per call. Tiers and answers are identical to
// the scalar methods; the frame only amortizes operand preparation.
type Frame struct {
	kn    *Kernels
	buf   []uint64
	slots []frameSlot
}

// frameSlot is one added (src, dst) pair; px/py index the packed
// operands in the frame buffer, -1 when the pair's tier doesn't pack.
type frameSlot struct {
	x, y   word.Word
	px, py int32
	nw     int32
}

func (f *Frame) reset() {
	f.buf = f.buf[:0]
	f.slots = f.slots[:0]
}

// Len returns the number of added pairs.
func (f *Frame) Len() int { return len(f.slots) }

// Add appends a (src, dst) pair and returns its index. Packing is
// skipped when the pair's tier doesn't want packed operands and
// reused when src or dst repeats the previous pair's.
func (f *Frame) Add(x, y word.Word) (int, error) {
	if err := validatePair(x, y); err != nil {
		return 0, err
	}
	s := frameSlot{x: x, y: y, px: -1, py: -1}
	ti := f.kn.resolve(x.Base(), x.Len())
	if ti.tier == TierPacked {
		nw := int32(word.PackedWords(x.Base(), x.Len()))
		s.nw = nw
		if prev := f.prev(); prev != nil && prev.px >= 0 && prev.x.Equal(x) {
			s.px = prev.px
		} else {
			s.px = int32(len(f.buf))
			f.buf = x.AppendPacked(f.buf)
		}
		if prev := f.prev(); prev != nil && prev.py >= 0 && prev.y.Equal(y) {
			s.py = prev.py
		} else {
			s.py = int32(len(f.buf))
			f.buf = y.AppendPacked(f.buf)
		}
	}
	f.slots = append(f.slots, s)
	return len(f.slots) - 1, nil
}

func (f *Frame) prev() *frameSlot {
	if len(f.slots) == 0 {
		return nil
	}
	return &f.slots[len(f.slots)-1]
}

func (f *Frame) packed(s *frameSlot) (x, y []uint64) {
	return f.buf[s.px : s.px+s.nw], f.buf[s.py : s.py+s.nw]
}

// UndirectedDistance answers pair i, reusing its packed operands.
func (f *Frame) UndirectedDistance(i int) (int, error) {
	s := &f.slots[i]
	if s.x.Equal(s.y) {
		return 0, nil
	}
	k := s.x.Len()
	ti := f.kn.resolve(s.x.Base(), k)
	switch {
	case ti.tier == TierTable:
		return int(ti.tab.udist[ti.tab.index(s.x, s.y)]), nil
	case ti.tier == TierPacked && s.px >= 0:
		px, py := f.packed(s)
		var dL, dR int
		if ti.single {
			dL, dR = packedDistance1(px[0], py[0], k, ti.b)
		} else {
			dL, dR = packedDistanceN(px, py, k, ti.b)
		}
		return clampDist(k, dL, dR), nil
	default:
		return f.kn.UndirectedDistance(s.x, s.y)
	}
}

// DirectedDistance answers pair i, reusing its packed operands.
func (f *Frame) DirectedDistance(i int) (int, error) {
	s := &f.slots[i]
	if s.x.Equal(s.y) {
		return 0, nil
	}
	k := s.x.Len()
	ti := f.kn.resolve(s.x.Base(), k)
	switch {
	case ti.tier == TierTable:
		return int(ti.tab.ddist[ti.tab.index(s.x, s.y)]), nil
	case ti.tier == TierPacked && ti.single && s.px >= 0:
		px, py := f.packed(s)
		return k - packedOverlap1(px[0], py[0], k, ti.b), nil
	default:
		return f.kn.DirectedDistance(s.x, s.y)
	}
}

// RouteUndirected answers pair i; only the returned path allocates.
func (f *Frame) RouteUndirected(i int) (Path, error) {
	s := &f.slots[i]
	if s.x.Equal(s.y) {
		return Path{}, nil
	}
	ti := f.kn.resolve(s.x.Base(), s.x.Len())
	if ti.tier == TierTable {
		return ti.tab.appendRoute(nil, s.x, s.y), nil
	}
	aL, aR, err := f.anchors(s, ti)
	if err != nil {
		return nil, err
	}
	return buildUndirectedPath(s.y, aL, aR), nil
}

// NextHopUndirected answers pair i with zero allocation.
func (f *Frame) NextHopUndirected(i int) (Hop, bool, error) {
	s := &f.slots[i]
	if s.x.Equal(s.y) {
		return Hop{}, false, nil
	}
	ti := f.kn.resolve(s.x.Base(), s.x.Len())
	if ti.tier == TierTable {
		return ti.tab.nextHop(s.x, s.y), true, nil
	}
	aL, aR, err := f.anchors(s, ti)
	if err != nil {
		return Hop{}, false, err
	}
	return f.kn.firstHop(s.x, s.y, aL, aR)
}

func (f *Frame) anchors(s *frameSlot, ti tierInfo) (anchor, anchor, error) {
	if ti.tier == TierPacked && s.px >= 0 {
		px, py := f.packed(s)
		aL, aR := f.kn.packedAnchors(px, py, s.x.Len(), ti.b)
		return aL, aR, nil
	}
	return f.kn.canonicalAnchors(s.x, s.y)
}
