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
//     the center. The single-word kernel (packedDistance1) makes that
//     probe on every shift, branch-free. The multi-word kernel
//     (packedDistanceN) first runs the lane scan, which tests the
//     center runs of all 2k-1 shifts at once, 64 per word, and probes
//     only the shifts whose run may be long enough: a few on irregular
//     operands, instead of 2k-1.
//   - full anchors: ties at the saturated value k involve runs of
//     exactly half the window, which need not span the center. The
//     single-word kernel computes every shift's exact longest run with
//     the m &= m<<b reduction (packedAnchors1). The multi-word kernel
//     (packedAnchorsN) probes the lane scan's shifts for minima below k
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

// Lane scan. A multi-word kernel only has to probe a shift whose
// longest run is longer than half its window w (see packedDistance1).
// Such a run covers the window's center digit ⌊w/2⌋. Counting the
// center in both directions, it therefore reaches at least
// h = ⌊(⌊w/2⌋+1)/2⌋+1 digits up from the center or h digits down.
// laneScan finds the shifts that pass this test, 64 shifts per word.
//
// It groups the shifts by sign and by the window's parity p = w mod 2,
// and calls shift c lane q = ⌊w/2⌋ of its group. At offset t from the
// window's center, lane q compares
//
//	c ≥ 0 (c = k-2q-p):     x[q+t] with y[k-q+t-p]
//	c < 0 (c = -(k-2q-p)):  y[q+t] with x[k-q+t-p]
//
// As q grows, one operand runs forward and the other backward. Reverse
// the second operand (r[i] = v[k-1-i], so y[k-q+t-p] is r[q-t-1+p]),
// and offset t of all lanes becomes two bit strings t positions apart
// in opposite directions. One XOR per digit plane then tests 64 lanes;
// digits of b = 2 bits are split into a low and a high bit plane.
//
// The scan walks t outward and keeps, per lane, whether offsets 0…t
// (up) and 0…-t (down) all agree. Lane q reaches its threshold h at
// t = ⌊(q+1)/2⌋; if it is still alive in either direction there, it is
// a candidate. Every other lane has failed by then. Reads past a
// window's edge can only keep a lane alive, never lose a candidate.
//
// On irregular operands a live lane survives each further offset with
// probability about 1/d, so the walk ends after a few offsets. On
// periodic operands lanes stop dying once the misaligned ones are
// gone; the walk then stops and every live lane becomes a candidate.

const (
	laneWords  = maxPackedBits/128 + 1 // lane words per group: q ≤ k/2 ≤ 512
	planePad   = 5                     // zero words below a plane: offsets reach -257 bits
	planeWords = 32                    // ≥ planePad + maxPackedBits/64 + the reach above, a power of two
)

// plane is one digit plane of an operand, bit i holding digit i's bit,
// from word planePad on; every other word is zero.
type plane [planeWords]uint64

// seek returns where the 64 plane bits from bit pos start, for at: a
// word index into the padded plane and a bit shift. pos may be
// negative.
func seek(pos int) planePos {
	pos += planePad << 6
	s := uint(pos & 63)
	return planePos{pos >> 6, s, 63 - s}
}

// planePos is a bit position in a plane, split for at.
type planePos struct {
	i     int  // word
	s, s1 uint // bit, and 63 minus it
}

// at returns the 64 plane bits from position o, j words up.
func (p *plane) at(o planePos, j int) uint64 {
	// The masked shift counts compile to bare shifts; the high word's
	// shift by 64-s is split in two so that s = 0 shifts it out.
	return p[(o.i+j)&(planeWords-1)]>>(o.s&63) | p[(o.i+j+1)&(planeWords-1)]<<(o.s1&63)<<1
}

// laneScan holds the digit planes and lane state of one scan. Each
// scan starts from a zero value: it relies on the zero padding and
// only ever sets candidate bits.
type laneScan struct {
	cand   [2*maxPackedBits/64 + 1]uint64 // bit 2|c|+(c < 0) set: probe shift c
	x, y   [2]plane                       // digit planes: low bit, high bit
	xr, yr [2]plane                       // the same, reversed
	up, dn [laneWords]uint64              // one group's alive lanes,
	lanes  [laneWords]uint64              // its candidates,
	kill   [laneWords]uint64              // and the lanes its last step killed
	b      int
}

// scan marks in ls.cand every shift of x against y whose longest run
// may be longer than half its window.
func (ls *laneScan) scan(x, y []uint64, k, b int) {
	ls.b = b
	loadPlanes(&ls.x, &ls.xr, x, k, b)
	loadPlanes(&ls.y, &ls.yr, y, k, b)
	for p := 0; p <= 1; p++ {
		ls.mark(ls.group(&ls.x, &ls.yr, p, (k-p)>>1), k-p, 0)
		ls.mark(ls.group(&ls.y, &ls.xr, p, (k-1-p)>>1), k-p, 1)
	}
}

// shift decodes candidate bit i of cand.
func shift(i int) int {
	if i&1 != 0 {
		return -(i >> 1)
	}
	return i >> 1
}

// mark sets the cand bits of the candidate lanes ls.lanes[:n] of a
// group whose lane q is shift |c| = top-2q, negative when neg is 1.
// Lane q is then bit 2·top+neg-4q, so the lanes land four bits apart
// and in reverse order. The probes then run in the order 0, +1, -1,
// +2, -2, …, shifts of equal window size back to back, which keeps
// their branches predictable: where every shift is a candidate
// (constant-but-one operands at DG(2,256)), probing lane by lane
// instead cost about a fifth more.
func (ls *laneScan) mark(n, top, neg int) {
	for j, m := range ls.lanes[:n] {
		for h := 0; h < 4; h++ {
			v := bits.Reverse16(uint16(m >> (16 * h)))
			if v == 0 {
				continue
			}
			// Lane 64j+16h+15-i is bit off+4i.
			off := 2*top + neg - 60 - 256*j - 64*h
			e := uint64(v)
			e = (e | e<<24) & 0x000000ff000000ff
			e = (e | e<<12) & 0x000f000f000f000f
			e = (e | e<<6) & 0x0303030303030303
			e = (e | e<<3) & 0x1111111111111111
			if off < 0 {
				// The bits shifted out belong to lanes past the group's
				// last, which are clear.
				e >>= uint(-off)
				off = 0
			}
			w, s := off>>6, uint(off&63)
			ls.cand[w] |= e << s
			ls.cand[w+1] |= e >> (64 - s)
		}
	}
}

// loadPlanes splits the packed operand v (k digits of b bits) into
// its digit planes, forward into f and reversed into r.
func loadPlanes(f, r *[2]plane, v []uint64, k, b int) {
	nw := (k + 63) >> 6
	if b == 1 {
		copy(f[0][planePad:], v)
	} else {
		for i := 0; i < nw; i++ {
			lo := v[2*i]
			var hi uint64
			if 2*i+1 < len(v) {
				hi = v[2*i+1]
			}
			f[0][planePad+i] = evenBits(lo) | evenBits(hi)<<32
			f[1][planePad+i] = evenBits(lo>>1) | evenBits(hi>>1)<<32
		}
	}
	// Reversing the nw words puts digit k-1 at bit sh; shift it to 0.
	sh := uint(nw<<6 - k)
	for pl := 0; pl < b; pl++ {
		src := f[pl][planePad : planePad+nw]
		dst := r[pl][planePad : planePad+nw]
		for i := range dst {
			w := bits.Reverse64(src[nw-1-i]) >> sh
			if i+1 < nw {
				w |= bits.Reverse64(src[nw-2-i]) << (64 - sh)
			}
			dst[i] = w
		}
	}
}

// evenBits gathers bits 0, 2, …, 62 of v into its low 32 bits.
func evenBits(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	return (v | v>>16) & 0x00000000ffffffff
}

// group walks the lanes q ∈ [1-p, qhi] of window parity p, which
// compare u[q+t] with r[q-t-1+p] at offset t, and leaves the
// candidates in ls.lanes[:n], returning n.
func (ls *laneScan) group(u, r *[2]plane, p, qhi int) (n int) {
	if qhi < 0 {
		return 0 // k = 1 has no shift c < 0
	}
	n = qhi>>6 + 1
	for j := 0; j < n; j++ {
		ls.up[j], ls.dn[j], ls.lanes[j] = ^uint64(0), ^uint64(0), 0
	}
	ls.up[n-1] >>= uint(63 - qhi&63)
	ls.up[0] &^= uint64(1 - p) // lane 0 exists only for odd windows
	ls.dn[n-1], ls.dn[0] = ls.up[n-1], ls.up[0]
	// This is the scan's hot loop: the digit comparisons are written
	// out rather than called, both directions are always compared,
	// and the kill count waits for the end of the step, so that the
	// loop holds no call or data-dependent branch.
	two := ls.b == 2
	for t := 0; ; t++ {
		// Lane word j reads its up digits from u at bit 64j+t and r at
		// 64j-t-1+p, its down digits from u at 64j-t and r at 64j+t-1+p.
		uu, ru, ud, rd := seek(t), seek(-t-1+p), seek(-t), seek(t-1+p)
		live := uint64(0)
		lo := max(2*t-1, 0) >> 6
		for j := lo; j < n; j++ {
			up, dn := ls.up[j], ls.dn[j]
			du := u[0].at(uu, j) ^ r[0].at(ru, j)
			dd := u[0].at(ud, j) ^ r[0].at(rd, j)
			if two {
				du |= u[1].at(uu, j) ^ r[1].at(ru, j)
				dd |= u[1].at(ud, j) ^ r[1].at(rd, j)
			}
			alive := (up &^ du) | (dn &^ dd)
			ls.kill[j] = (up | dn) &^ alive
			// Lanes up to 2t have reached their threshold: the alive
			// ones are candidates, and none is walked further.
			done := ^uint64(0) >> uint(63-min(max(2*t-j<<6, -1), 63))
			ls.lanes[j] |= alive & done
			ls.up[j], ls.dn[j] = up&^du&^done, dn&^dd&^done
			live |= alive &^ done
		}
		if live == 0 {
			return n
		}
		// A step costs about as much per lane word as probing a short
		// run. Once a step kills less than a lane per two words
		// (periodic operands: long runs everywhere), the live lanes
		// are probed instead.
		killed := 0
		for _, m := range ls.kill[lo:n] {
			killed += bits.OnesCount64(m)
		}
		if 2*killed < n-lo {
			for j := lo; j < n; j++ {
				ls.lanes[j] |= ls.up[j] | ls.dn[j]
			}
			return n
		}
	}
}

// before reports whether a precedes b in the quadratic sweep's
// row-major order: s ascending, then t.
func (a anchor) before(b anchor) bool {
	return a.s < b.s || (a.s == b.s && a.t < b.t)
}

// packedDistanceN evaluates Theorem 2's two minima on multi-word
// packed operands with the same center-digit argument as
// packedDistance1, but probes only the shifts the lane scan marks:
// every other shift's longest run is at most half its window, so its
// values are ≥ k. Returns the unclamped minima.
func packedDistanceN(x, y []uint64, k, b int) (dL, dR int) {
	dL, dR = k, k
	var ls laneScan
	ls.scan(x, y, k, b)
	sv := shiftView{x: x, y: y, b: b}
	for i, m := range ls.cand {
		for ; m != 0; m &= m - 1 {
			c := shift(i<<6 + bits.TrailingZeros64(m))
			lo := sv.align(c, k)
			w := k - lo - max(c, 0)
			n, _ := sv.runThrough((lo + w>>1) * b)
			dL = min(dL, 2*(k-n)-c)
			dR = min(dR, 2*(k-n)+c)
		}
	}
	return dL, dR
}

// packedAnchorsN computes the exact Theorem 2 anchors on multi-word
// packed operands, byte-identical to anchorsQuadratic.
//
// Pass 1 is packedDistanceN's probe of the lane scan's shifts, keeping
// the run each probe finds: a run that brings a minimum below the
// trivial bound k is longer than half its window, so the probe saw it
// whole and it is the only run of its shift that long. Such minima
// take the row-major first of their candidates directly.
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
	var ls laneScan
	ls.scan(x, y, k, b)
	sv := shiftView{x: x, y: y, b: b}
	for i, m := range ls.cand {
		for ; m != 0; m &= m - 1 {
			c := shift(i<<6 + bits.TrailingZeros64(m))
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
