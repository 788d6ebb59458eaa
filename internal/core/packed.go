package core

import (
	"math/bits"

	"repro/internal/word"
)

// Bit-packed kernels (tier T2 of the kernel ladder, see kernels.go).
//
// For d ≤ 4 a word's digits pack into machine words (word.AppendPacked)
// and Theorem 2 reduces to run arithmetic on shift-aligned agreement
// masks. Write c for the alignment shift (y-position = x-position + c,
// 1-based, c ∈ [-(k-1), k-1]) and L_c for the longest agreement run at
// shift c. A matching pair (i, j, θ) with j = i + c - θ + 1 … after
// minimization over each shift only the longest run matters, and
//
//	bestL = min(k, min_c 2k - 2L_c - c)
//	bestR = min(k, min_c 2k - 2L_c + c)
//
// reproduces bestLWith/bestRWith exactly — including the argmin anchors:
// the quadratic sweep's row-major tie-break (i ascending, then j) maps
// to "first longest run of the qualifying shift, shifts compared by
// their candidate (s, t)", with the trivial pairs (1,k) / (k,1), θ = 0
// as sentinels when the minimum saturates at k. The equivalence is
// pinned by TestPackedAnchorsMatchQuadratic and the fuzz target.
//
// Two evaluation depths:
//
//   - distance only: a run that could improve the running minimum is
//     longer than half its window (both minima start at k, the trivial
//     bound), hence spans the window's center digit — so the longest
//     relevant run comes from two trailing/leading-zero counts around
//     the center, branch-free, no loop (packedDistance1/N).
//   - full anchors: ties at the saturated value k involve runs of
//     exactly half the window, which need not span the center. The
//     single-word kernel computes every shift's exact longest run with
//     the m &= m<<b reduction (packedAnchors1). The multi-word kernel
//     (packedAnchorsN) keeps the center probe's run for minima below k
//     and resolves a saturated minimum with one more probe per shift,
//     placed so that every run able to beat the trivial-pair sentinel
//     covers it.

// maxPackedBits bounds the packed operand size the bit tier accepts;
// beyond it (k > 1024 at d=2, k > 512 at d=3/4) the scratch kernels
// take over and the suffix-tree walk's anchors are canonical.
const maxPackedBits = 1024

// packedSingleWord reports whether DG(d,k) operands fit one uint64 —
// the regime of the single-word kernels, the only one with a packed
// directed overlap.
func packedSingleWord(d, k int) bool {
	b := word.PackedBits(d)
	return b != 0 && k*b <= 64
}

// packedEligible reports whether the packed tier evaluates DG(d,k) at
// all (single- or multi-word); on these graphs the quadratic sweep's
// anchors are canonical.
func packedEligible(d, k int) bool {
	b := word.PackedBits(d)
	return b != 0 && k*b <= maxPackedBits
}

// packedScratch holds the packed operand and bookkeeping buffers of
// one Kernels instance. Zero value ready; buffers grow on first use.
type packedScratch struct {
	x, y []uint64
	lens []int16 // per-shift longest run, indexed c+k-1
}

// load packs both operands, reusing the scratch vectors.
func (ps *packedScratch) load(x, y word.Word) {
	ps.x = x.AppendPacked(ps.x[:0])
	ps.y = y.AppendPacked(ps.y[:0])
}

// packedAgree1 returns the filled agreement mask of two packed
// single-word operands: every agreeing digit contributes b set bits,
// so runs of agreeing digits are runs of set bits and all run
// arithmetic works in bit space with stride b. The caller masks the
// result to the alignment window.
func packedAgree1(x, y uint64, b int) uint64 {
	v := x ^ y
	if b == 1 {
		return ^v
	}
	t := ^(v | v>>1) & 0x5555555555555555
	return t | t<<1
}

// runThrough1 returns the length (in digits) of the agreement run
// containing the digit whose low bit is at position bit, 0 if that
// digit disagrees. Branch-free: the mask is filled, so the two scans
// count whole digits.
func runThrough1(g uint64, bit, b int) int {
	up := bits.TrailingZeros64(^(g >> uint(bit)))
	dn := bits.LeadingZeros64(^(g << uint(64-bit)))
	return (up + dn) / b
}

// packedDistance1 evaluates Theorem 2's two minima on single-word
// packed operands. Every shift is scanned, but only via the center
// digit of its window: a run short of half the window cannot beat the
// running minima (both start at the trivial bound k), and a longer
// run necessarily spans the center, where runThrough1 measures it
// exactly. Underestimates for non-qualifying runs only produce values
// that are ≥ k and therefore harmless. Returns the unclamped minima;
// the distance is min(k, dL, dR).
func packedDistance1(x, y uint64, k, b int) (dL, dR int) {
	kb := uint(k * b)
	full := ^uint64(0)
	if kb < 64 {
		full = uint64(1)<<kb - 1
	}
	dL, dR = k, k
	{
		g := packedAgree1(x, y, b) & full
		n := runThrough1(g, (k>>1)*b, b)
		if v := 2 * (k - n); v < dL {
			dL = v
			dR = v
		}
	}
	digMask := uint64(1)<<uint(b) - 1
	low := uint64(0)
	for a := 1; a <= k-1; a++ {
		ab := uint(a * b)
		low = low<<uint(b) | digMask
		w := k - a
		gp := packedAgree1(x, y>>ab, b) & (full >> ab)
		gm := packedAgree1(x, y<<ab, b) & full &^ low
		np := runThrough1(gp, (w>>1)*b, b)
		nm := runThrough1(gm, (a+w>>1)*b, b)
		if v := 2*(k-np) - a; v < dL {
			dL = v
		}
		if v := 2*(k-np) + a; v < dR {
			dR = v
		}
		if v := 2*(k-nm) + a; v < dL {
			dL = v
		}
		if v := 2*(k-nm) - a; v < dR {
			dR = v
		}
	}
	return dL, dR
}

// packedAnchors1 computes the exact Theorem 2 anchors on single-word
// packed operands, byte-identical to anchorsQuadratic. Pass 1 records
// every shift's exact longest run (the m &= m<<b reduction, its +c
// and -c dependency chains interleaved); pass 2 revisits only the
// qualifying shifts and resolves the row-major tie-break: the first
// longest run of each qualifying shift yields candidate (s, t, θ),
// the lexicographic minimum by (s, then t) wins, and the trivial pair
// competes as a sentinel when the minimum saturates at k.
func packedAnchors1(x, y uint64, k, b int, lens []int16) (aL, aR anchor) {
	kb := uint(k * b)
	full := ^uint64(0)
	if kb < 64 {
		full = uint64(1)<<kb - 1
	}
	dL, dR := k, k
	{
		g := packedAgree1(x, y, b) & full
		n := 0
		for g != 0 {
			g &= g << uint(b)
			n++
		}
		lens[k-1] = int16(n)
		if n > 0 {
			if v := 2 * (k - n); v < dL {
				dL = v
				dR = v
			}
		}
	}
	digMask := uint64(1)<<uint(b) - 1
	low := uint64(0)
	for a := 1; a <= k-1; a++ {
		ab := uint(a * b)
		low = low<<uint(b) | digMask
		gp := packedAgree1(x, y>>ab, b) & (full >> ab)
		gm := packedAgree1(x, y<<ab, b) & full &^ low
		np, nm := 0, 0
		for gp != 0 && gm != 0 {
			gp &= gp << uint(b)
			gm &= gm << uint(b)
			np++
			nm++
		}
		for gp != 0 {
			gp &= gp << uint(b)
			np++
		}
		for gm != 0 {
			gm &= gm << uint(b)
			nm++
		}
		lens[a+k-1] = int16(np)
		lens[k-1-a] = int16(nm)
		if np > 0 {
			if v := 2*(k-np) - a; v < dL {
				dL = v
			}
			if v := 2*(k-np) + a; v < dR {
				dR = v
			}
		}
		if nm > 0 {
			if v := 2*(k-nm) + a; v < dL {
				dL = v
			}
			if v := 2*(k-nm) - a; v < dR {
				dR = v
			}
		}
	}
	const inf = 1 << 30
	aL = anchor{s: inf, t: inf, dist: inf}
	aR = anchor{s: inf, t: inf, dist: inf}
	if dL == k {
		aL = anchor{s: 1, t: k, theta: 0, dist: k}
	}
	if dR == k {
		aR = anchor{s: k, t: 1, theta: 0, dist: k}
	}
	for c := -(k - 1); c <= k-1; c++ {
		n := int(lens[c+k-1])
		if n == 0 {
			continue
		}
		okL := 2*(k-n)-c == dL
		okR := 2*(k-n)+c == dR
		if !okL && !okR {
			continue
		}
		var g uint64
		if c >= 0 {
			cb := uint(c * b)
			g = packedAgree1(x, y>>cb, b) & (full >> cb)
		} else {
			cb := uint(-c * b)
			g = packedAgree1(x, y<<cb, b) & full &^ (uint64(1)<<cb - 1)
		}
		r := g
		for i := 1; i < n; i++ {
			r &= r << uint(b)
		}
		e := bits.TrailingZeros64(r) / b // 0-based end digit of first longest run
		a0 := e - n + 1                  // 0-based start digit
		if okL {
			cand := anchor{s: a0 + 1, t: e + 1 + c, theta: n, dist: dL}
			if cand.s < aL.s || (cand.s == aL.s && cand.t < aL.t) {
				aL = cand
			}
		}
		if okR {
			cand := anchor{s: e + 1, t: a0 + 1 + c, theta: n, dist: dR}
			if cand.s < aR.s || (cand.s == aR.s && cand.t < aR.t) {
				aR = cand
			}
		}
	}
	return aL, aR
}

// packedOverlap1 is Property 1's suffix/prefix overlap on single-word
// packed operands: the largest s < k with suffix_s(x) = prefix_s(y).
// The overlap value is unique, so this agrees with the Morris–Pratt
// scan by definition. Callers handle x = y (overlap k) beforehand.
func packedOverlap1(x, y uint64, k, b int) int {
	for s := k - 1; s >= 1; s-- {
		m := uint64(1)<<uint(s*b) - 1
		if x>>uint((k-s)*b) == y&m {
			return s
		}
	}
	return 0
}

// shiftView is one alignment of the multi-word scans: the agreement
// between x and y shifted by sbits (toward lower positions when plus,
// higher when minus), windowed to [loBit, hiBit).
type shiftView struct {
	x, y         []uint64
	b            int
	sbits        int
	plus         bool
	loBit, hiBit int
}

// align points the view at shift c of length-k operands and returns
// the window's first digit in x coordinates.
func (sv *shiftView) align(c, k int) (lo int) {
	if c >= 0 {
		sv.sbits, sv.plus, sv.loBit, sv.hiBit = c*sv.b, true, 0, (k-c)*sv.b
		return 0
	}
	sv.sbits, sv.plus, sv.loBit, sv.hiBit = -c*sv.b, false, -c*sv.b, k*sv.b
	return -c
}

// agreeWord materializes word i of the view's filled agreement mask.
func (sv *shiftView) agreeWord(i int) uint64 {
	base := i << 6
	if base >= sv.hiBit || base+64 <= sv.loBit {
		return 0
	}
	var yw uint64
	off, sh := sv.sbits>>6, uint(sv.sbits&63)
	if sv.plus {
		j := i + off
		if j < len(sv.y) {
			yw = sv.y[j] >> sh
			if sh != 0 && j+1 < len(sv.y) {
				yw |= sv.y[j+1] << (64 - sh)
			}
		}
	} else {
		j := i - off
		if j >= 0 {
			yw = sv.y[j] << sh
		}
		if sh != 0 && j-1 >= 0 {
			yw |= sv.y[j-1] >> (64 - sh)
		}
	}
	g := packedAgree1(sv.x[i], yw, sv.b)
	if lo := sv.loBit - base; lo > 0 {
		g &= ^uint64(0) << uint(lo)
	}
	if hi := sv.hiBit - base; hi < 64 {
		g &= uint64(1)<<uint(hi) - 1
	}
	return g
}

// runThrough returns the length in digits and the first digit of the
// agreement run containing the digit at absolute bit position bit. If
// that digit disagrees it describes the run ending just below it
// instead (empty if that digit disagrees too): callers only accept
// runs long enough to cover the probed digit, and keeping the scan
// branch-free here is worth more than the early out. It materializes
// only the words the run actually touches (typically one).
func (sv *shiftView) runThrough(bit int) (n, start int) {
	wi, wb := bit>>6, uint(bit&63)
	g := sv.agreeWord(wi)
	up := bits.TrailingZeros64(^(g >> wb))
	if int(wb)+up == 64 {
		for j := wi + 1; (j << 6) < sv.hiBit; j++ {
			t := bits.TrailingZeros64(^sv.agreeWord(j))
			up += t
			if t < 64 {
				break
			}
		}
	}
	dn := 0
	if wb > 0 {
		dn = bits.LeadingZeros64(^(g << (64 - wb)))
	}
	if dn == int(wb) && bit > int(wb) {
		for j := wi - 1; j >= 0; j-- {
			t := bits.LeadingZeros64(^sv.agreeWord(j))
			dn += t
			if t < 64 {
				break
			}
		}
	}
	// b is 1 or 2, so b-1 is log2(b): shifts, not integer divisions,
	// on the hot path.
	sh := uint(sv.b - 1)
	return (up + dn) >> sh, (bit - dn) >> sh
}

// before reports whether a precedes b in the quadratic sweep's
// row-major order: s ascending, then t.
func (a anchor) before(b anchor) bool {
	return a.s < b.s || (a.s == b.s && a.t < b.t)
}

// packedDistanceN evaluates Theorem 2's two minima on multi-word
// packed operands with the same center-digit argument as
// packedDistance1; each shift materializes only the agreement words
// around its window center. Returns the unclamped minima. It keeps its
// own loop rather than running packedAnchorsN's first pass: the anchor
// bookkeeping made distances about 30% slower at k=256.
func packedDistanceN(x, y []uint64, k, b int) (dL, dR int) {
	dL, dR = k, k
	sv := shiftView{x: x, y: y, b: b}
	{
		sv.sbits, sv.plus, sv.loBit, sv.hiBit = 0, true, 0, k*b
		n, _ := sv.runThrough((k >> 1) * b)
		if v := 2 * (k - n); v < dL {
			dL = v
			dR = v
		}
	}
	for a := 1; a <= k-1; a++ {
		w := k - a
		sv.sbits, sv.plus, sv.loBit, sv.hiBit = a*b, true, 0, w*b
		np, _ := sv.runThrough((w >> 1) * b)
		sv.plus, sv.loBit, sv.hiBit = false, a*b, k*b
		nm, _ := sv.runThrough((a + w>>1) * b)
		if v := 2*(k-np) - a; v < dL {
			dL = v
		}
		if v := 2*(k-np) + a; v < dR {
			dR = v
		}
		if v := 2*(k-nm) + a; v < dL {
			dL = v
		}
		if v := 2*(k-nm) - a; v < dR {
			dR = v
		}
	}
	return dL, dR
}

// packedAnchorsN computes the exact Theorem 2 anchors on multi-word
// packed operands, byte-identical to anchorsQuadratic.
//
// Pass 1 is packedDistanceN's center-digit scan, keeping the run each
// probe finds: a run that brings a minimum below the trivial bound k is
// longer than half its window, so the probe saw it whole and it is the
// only run of its shift that long. Such minima take the row-major
// first of their candidates directly.
//
// A minimum saturated at k is a tie between the trivial pair (the
// sentinel, as in packedAnchors1) and every shift c whose longest run
// is exactly T = (k-c)/2 for the l-part, (k+c)/2 for the r-part: no
// run is longer, or the minimum would be below k. T is at least half
// the window w, so a shift has at most one such run (two would need
// 2T+1 digits), and it covers window digit T-1 unless 2T = w and it is
// the window's upper half.
func packedAnchorsN(x, y []uint64, k, b int) (aL, aR anchor) {
	dL, dR := k, k
	sv := shiftView{x: x, y: y, b: b}
	for c := -(k - 1); c <= k-1; c++ {
		lo := sv.align(c, k)
		w := k - lo - max(c, 0)
		n, a0 := sv.runThrough((lo + w>>1) * b)
		if v := 2*(k-n) - c; v < k && v <= dL {
			if cand := (anchor{s: a0 + 1, t: a0 + n + c, theta: n, dist: v}); v < dL || cand.before(aL) {
				aL, dL = cand, v
			}
		}
		if v := 2*(k-n) + c; v < k && v <= dR {
			if cand := (anchor{s: a0 + n, t: a0 + 1 + c, theta: n, dist: v}); v < dR || cand.before(aR) {
				aR, dR = cand, v
			}
		}
	}
	if dL == k {
		// An l-part candidate (s, t) beats the sentinel (1, k) only
		// with s = 1: its run starts at x's first digit, which needs
		// c ≥ 0. Then t = (k+c)/2, so the smallest such c wins.
		aL = anchor{s: 1, t: k, theta: 0, dist: k}
		for c := k % 2; c <= k-2; c += 2 {
			T := (k - c) / 2
			sv.align(c, k)
			if n, _ := sv.runThrough(0); n >= T {
				aL = anchor{s: 1, t: T + c, theta: T, dist: k}
				break
			}
		}
	}
	if dR == k {
		// An r-part candidate beats the sentinel (k, 1) only if its
		// run ends before x's last digit, so an upper-half run (c ≤ 0)
		// never wins and one probe at window digit T-1 finds the
		// rest. T fits the window only for c ≤ k/3.
		aR = anchor{s: k, t: 1, theta: 0, dist: k}
		for c := -(k - 2); c <= k/3; c += 2 {
			T := (k + c) / 2
			lo := sv.align(c, k)
			if n, a0 := sv.runThrough((lo + T - 1) * b); n >= T {
				if cand := (anchor{s: a0 + T, t: a0 + 1 + c, theta: T, dist: k}); cand.before(aR) {
					aR = cand
				}
			}
		}
	}
	return aL, aR
}
