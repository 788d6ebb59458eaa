package core

import (
	"math/bits"

	"repro/internal/word"
)

// Bit-sliced kernels (tier T2 of the kernel ladder, see kernels.go).
//
// Every operand is b = ⌈log₂ d⌉ digit planes (word.AppendPlanes), bit i
// of plane p holding bit p of digit i, so two aligned digit strings
// agree where the OR of their b plane XORs is clear: an agreement mask
// has one bit per digit for every alphabet, and Theorem 2 reduces to
// run arithmetic on shift-aligned agreement masks. Write c for the
// alignment shift (y-position = x-position + c, 1-based,
// c ∈ [-(k-1), k-1]) and L_c for the longest agreement run at shift c.
// A matching pair (i, j, θ) with j = i + c - θ + 1 … after
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
//     the m &= m<<1 reduction (packedAnchors1). The multi-word kernel
//     (packedAnchorsN) probes the lane scan's shifts for minima below k
//     and resolves a saturated minimum with one more probe per shift,
//     placed so that every run able to beat the trivial-pair sentinel
//     covers it.

// maxPackedBits bounds the plane bits k·b the tier accepts: k ≤ 1024
// at d = 2, 512 at d ≤ 4, 341 at d ≤ 8, 170 at d ≤ 36. Past it the
// scratch kernels take over and the suffix-tree walk's anchors are
// canonical: the probes of a periodic pair grow as k² there, while
// Algorithm 4 stays linear.
const maxPackedBits = 1024

// maxPlanes is the plane count of the largest alphabet.
const maxPlanes = 6 // word.PackedBits(word.MaxBase)

// packedEligible reports whether the packed tier evaluates DG(d,k);
// on these graphs the quadratic sweep's anchors are canonical.
func packedEligible(d, k int) bool {
	return k*word.PackedBits(d) <= maxPackedBits
}

// packedSingleWord reports whether DG(d,k) planes fit one uint64 each:
// the regime of the single-word kernels, the only one with a packed
// directed overlap.
func packedSingleWord(k int) bool { return k <= 64 }

// packedScratch holds the plane and bookkeeping buffers of one Kernels
// instance. Zero value ready; buffers grow on first use.
type packedScratch struct {
	x, y []uint64  // digit planes, ⌈k/64⌉ words each
	lens []int16   // per-shift longest run, indexed c+k-1
	ls   *laneScan // the multi-word kernels' scan state, made on first use
}

// load writes both operands' planes, reusing the scratch vectors.
func (ps *packedScratch) load(x, y word.Word) {
	ps.x = x.AppendPlanes(ps.x[:0])
	ps.y = y.AppendPlanes(ps.y[:0])
}

// scan returns the lane scan state, making it on first use.
func (ps *packedScratch) scan() *laneScan {
	if ps.ls == nil {
		ps.ls = new(laneScan)
	}
	return ps.ls
}

// shiftDiff returns the disagreement masks of single-word planes x
// against y shifted by a digits each way: bit i of plus is set where
// x's digit i differs from y's digit i+a, bit i of minus where it
// differs from y's digit i-a. The caller masks them to the window.
func shiftDiff(x, y []uint64, a uint) (plus, minus uint64) {
	y = y[:len(x)]
	for p, xp := range x {
		plus |= xp ^ y[p]>>a
		minus |= xp ^ y[p]<<a
	}
	return plus, minus
}

// runThrough1 returns the length (in digits) of the agreement run
// containing digit i, 0 if that digit disagrees. Branch-free.
func runThrough1(g uint64, i int) int {
	up := bits.TrailingZeros64(^(g >> uint(i)))
	dn := bits.LeadingZeros64(^(g << uint(64-i)))
	return up + dn
}

// packedDistance1 evaluates Theorem 2's two minima on single-word
// planes. Every shift is scanned, but only via the center digit of its
// window: a run short of half the window cannot beat the running
// minima (both start at the trivial bound k), and a longer run
// necessarily spans the center, where runThrough1 measures it exactly.
// Underestimates for non-qualifying runs only produce values that are
// ≥ k and therefore harmless. Returns the unclamped minima; the
// distance is min(k, dL, dR).
func packedDistance1(x, y []uint64, k int) (dL, dR int) {
	full := ^uint64(0) >> uint(64-k)
	dL, dR = k, k
	{
		g, _ := shiftDiff(x, y, 0)
		n := runThrough1(^g&full, k>>1)
		if v := 2 * (k - n); v < dL {
			dL = v
			dR = v
		}
	}
	for a := 1; a <= k-1; a++ {
		w := k - a
		dp, dm := shiftDiff(x, y, uint(a))
		np := runThrough1(^dp&(full>>uint(a)), w>>1)
		nm := runThrough1(^dm&full&^(uint64(1)<<uint(a)-1), a+w>>1)
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
// planes, byte-identical to anchorsQuadratic. Pass 1 records every
// shift's exact longest run (the m &= m<<1 reduction, its +c and -c
// dependency chains interleaved); pass 2 revisits only the qualifying
// shifts and resolves the row-major tie-break: the first longest run
// of each qualifying shift yields candidate (s, t, θ), the
// lexicographic minimum by (s, then t) wins, and the trivial pair
// competes as a sentinel when the minimum saturates at k.
func packedAnchors1(x, y []uint64, k int, lens []int16) (aL, aR anchor) {
	full := ^uint64(0) >> uint(64-k)
	// agree returns shift c's agreement mask, masked to its window.
	agree := func(c int) uint64 {
		if c >= 0 {
			dp, _ := shiftDiff(x, y, uint(c))
			return ^dp & (full >> uint(c))
		}
		_, dm := shiftDiff(x, y, uint(-c))
		return ^dm & full &^ (uint64(1)<<uint(-c) - 1)
	}
	dL, dR := k, k
	{
		g := agree(0)
		n := 0
		for g != 0 {
			g &= g << 1
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
	for a := 1; a <= k-1; a++ {
		dp, dm := shiftDiff(x, y, uint(a))
		gp := ^dp & (full >> uint(a))
		gm := ^dm & full &^ (uint64(1)<<uint(a) - 1)
		np, nm := 0, 0
		for gp != 0 && gm != 0 {
			gp &= gp << 1
			gm &= gm << 1
			np++
			nm++
		}
		for gp != 0 {
			gp &= gp << 1
			np++
		}
		for gm != 0 {
			gm &= gm << 1
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
		r := agree(c)
		for i := 1; i < n; i++ {
			r &= r << 1
		}
		e := bits.TrailingZeros64(r) // 0-based end digit of first longest run
		a0 := e - n + 1              // 0-based start digit
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
// planes: the largest s < k with suffix_s(x) = prefix_s(y). The
// overlap value is unique, so this agrees with the Morris–Pratt scan
// by definition. Callers handle x = y (overlap k) beforehand.
func packedOverlap1(x, y []uint64, k int) int {
	y = y[:len(x)]
	for s := k - 1; s >= 1; s-- {
		m := uint64(1)<<uint(s) - 1
		var v uint64
		for p, xp := range x {
			v |= xp>>uint(k-s) ^ y[p]&m
		}
		if v == 0 {
			return s
		}
	}
	return 0
}

// shiftView is one alignment of the multi-word scans: the agreement
// between x and y shifted by c digits, windowed to x's digits
// [lo, hi). Word i of y aligned to x is y[i+dw]>>r | y[i+dw+1]<<l, a
// word out of range reading as zero.
type shiftView struct {
	x, y   []uint64 // digit planes, nw words each
	nw     int
	dw     int
	r, l   uint
	lo, hi int
}

// align points the view at shift c of length-k operands and returns
// the window's first digit in x coordinates.
func (sv *shiftView) align(c, k int) (lo int) {
	if c >= 0 {
		sh := uint(c & 63)
		sv.dw, sv.r, sv.l, sv.lo, sv.hi = c>>6, sh, 64-sh, 0, k-c
		return 0
	}
	sh := uint(-c & 63)
	sv.dw, sv.r, sv.l, sv.lo, sv.hi = -(-c>>6)-1, 64-sh, sh, -c, k
	return -c
}

// agreeWord materializes word i of the view's agreement mask: the
// complement of the OR of the planes' XORs, masked to the window.
func (sv *shiftView) agreeWord(i int) uint64 {
	base := i << 6
	if base >= sv.hi || base+64 <= sv.lo {
		return 0
	}
	// A shift by 64 clears a word past either end of y.
	j0, j1, r, l := i+sv.dw, i+sv.dw+1, sv.r, sv.l
	if uint(j0) >= uint(sv.nw) {
		j0, r = 0, 64
	}
	if uint(j1) >= uint(sv.nw) {
		j1, l = 0, 64
	}
	var diff uint64
	for p := 0; p < len(sv.x); p += sv.nw {
		diff |= sv.x[p+i] ^ (sv.y[p+j0]>>r | sv.y[p+j1]<<l)
	}
	g := ^diff
	if lo := sv.lo - base; lo > 0 {
		g &= ^uint64(0) << uint(lo)
	}
	if hi := sv.hi - base; hi < 64 {
		g &= uint64(1)<<uint(hi) - 1
	}
	return g
}

// runThrough returns the length and the first digit of the agreement
// run containing digit i. If that digit disagrees it describes the run
// ending just below it instead (empty if that digit disagrees too):
// callers only accept runs long enough to cover the probed digit, and
// keeping the scan branch-free here is worth more than the early out.
// It materializes only the words the run actually touches (typically
// one).
func (sv *shiftView) runThrough(i int) (n, start int) {
	wi, wb := i>>6, uint(i&63)
	g := sv.agreeWord(wi)
	up := bits.TrailingZeros64(^(g >> wb))
	if int(wb)+up == 64 {
		for j := wi + 1; (j << 6) < sv.hi; j++ {
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
	if dn == int(wb) && i > int(wb) {
		for j := wi - 1; j >= 0; j-- {
			t := bits.LeadingZeros64(^sv.agreeWord(j))
			dn += t
			if t < 64 {
				break
			}
		}
	}
	return up + dn, i - dn
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
// the second operand's planes (r[i] = v[k-1-i], so y[k-q+t-p] is
// r[q-t-1+p]), and offset t of all lanes becomes two bit strings t
// positions apart in opposite directions. The OR of one XOR per digit
// plane then tests 64 lanes.
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

// laneScan holds the padded digit planes and lane state of one scan.
// scan rewrites or clears every plane word it reads and clears the
// candidates, so one laneScan serves any sequence of scans.
type laneScan struct {
	cand   [2*maxPackedBits/64 + 1]uint64 // bit 2|c|+(c < 0) set: probe shift c
	x, y   [maxPlanes]plane               // digit planes
	xr, yr [maxPlanes]plane               // the same, reversed
	up, dn [laneWords]uint64              // one group's alive lanes,
	lanes  [laneWords]uint64              // its candidates,
	kill   [laneWords]uint64              // the lanes its last step killed,
	du, dd [laneWords]uint64              // and that step's disagreements
	b      int
	hw     int // plane words any scan has written, from planePad on
}

// scan marks in ls.cand every shift of x against y whose longest run
// may be longer than half its window.
func (ls *laneScan) scan(x, y []uint64, k int) {
	nw := (k + 63) >> 6
	ls.b = len(x) / nw
	ls.cand = [len(ls.cand)]uint64{}
	ls.du, ls.dd = [laneWords]uint64{}, [laneWords]uint64{}
	ls.hw = max(ls.hw, nw)
	for p := 0; p < ls.b; p++ {
		loadPlane(&ls.x[p], &ls.xr[p], x[p*nw:(p+1)*nw], k, ls.hw)
		loadPlane(&ls.y[p], &ls.yr[p], y[p*nw:(p+1)*nw], k, ls.hw)
	}
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

// loadPlane copies the k-digit plane v into f from word planePad on
// and its reversal into r, clearing the words above both up to hw,
// past which no scan has written.
func loadPlane(f, r *plane, v []uint64, k, hw int) {
	nw := len(v)
	copy(f[planePad:], v)
	clear(f[planePad+nw : planePad+hw])
	// Reversing the nw words puts digit k-1 at bit sh; shift it to 0.
	sh := uint(nw<<6 - k)
	dst := r[planePad : planePad+nw]
	for i := range dst {
		w := bits.Reverse64(v[nw-1-i]) >> sh
		if i+1 < nw {
			w |= bits.Reverse64(v[nw-2-i]) << (64 - sh)
		}
		dst[i] = w
	}
	clear(r[planePad+nw : planePad+hw])
}

// group walks the lanes q ∈ [1-p, qhi] of window parity p, which
// compare u[q+t] with r[q-t-1+p] at offset t, and leaves the
// candidates in ls.lanes[:n], returning n.
func (ls *laneScan) group(u, r *[maxPlanes]plane, p, qhi int) (n int) {
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
	// The step loop over j is the scan's hot loop: the digit
	// comparisons are written out rather than called, both directions
	// are always compared, and the kill count waits for the end of
	// the step, so that the loop holds no call or data-dependent
	// branch. Planes past the first are ORed into ls.du and ls.dd
	// ahead of it (they stay zero when b = 1): one loop over every
	// plane holds more values than there are registers.
	for t := 0; ; t++ {
		// Lane word j reads its up digits from u at bit 64j+t and r at
		// 64j-t-1+p, its down digits from u at 64j-t and r at 64j+t-1+p.
		uu, ru, ud, rd := seek(t), seek(-t-1+p), seek(-t), seek(t-1+p)
		lo := max(2*t-1, 0) >> 6
		for pl := 1; pl < ls.b; pl++ {
			u, r := &u[pl], &r[pl]
			for j := lo; j < n; j++ {
				du := u.at(uu, j) ^ r.at(ru, j)
				dd := u.at(ud, j) ^ r.at(rd, j)
				if pl > 1 {
					du |= ls.du[j]
					dd |= ls.dd[j]
				}
				ls.du[j], ls.dd[j] = du, dd
			}
		}
		live := uint64(0)
		for j := lo; j < n; j++ {
			up, dn := ls.up[j], ls.dn[j]
			du := u[0].at(uu, j) ^ r[0].at(ru, j) | ls.du[j]
			dd := u[0].at(ud, j) ^ r[0].at(rd, j) | ls.dd[j]
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
// planes with the same center-digit argument as packedDistance1, but
// probes only the shifts the lane scan ls marks: every other shift's
// longest run is at most half its window, so its values are ≥ k.
// Returns the unclamped minima.
func packedDistanceN(ls *laneScan, x, y []uint64, k int) (dL, dR int) {
	dL, dR = k, k
	ls.scan(x, y, k)
	sv := shiftView{x: x, y: y, nw: (k + 63) >> 6}
	for i, m := range ls.cand {
		for ; m != 0; m &= m - 1 {
			c := shift(i<<6 + bits.TrailingZeros64(m))
			lo := sv.align(c, k)
			w := k - lo - max(c, 0)
			n, _ := sv.runThrough(lo + w>>1)
			dL = min(dL, 2*(k-n)-c)
			dR = min(dR, 2*(k-n)+c)
		}
	}
	return dL, dR
}

// packedAnchorsN computes the exact Theorem 2 anchors on multi-word
// planes, byte-identical to anchorsQuadratic.
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
func packedAnchorsN(ls *laneScan, x, y []uint64, k int) (aL, aR anchor) {
	dL, dR := k, k
	ls.scan(x, y, k)
	sv := shiftView{x: x, y: y, nw: (k + 63) >> 6}
	for i, m := range ls.cand {
		for ; m != 0; m &= m - 1 {
			c := shift(i<<6 + bits.TrailingZeros64(m))
			lo := sv.align(c, k)
			w := k - lo - max(c, 0)
			n, a0 := sv.runThrough(lo + w>>1)
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
			if n, a0 := sv.runThrough(lo + T - 1); n >= T {
				if cand := (anchor{s: a0 + T, t: a0 + 1 + c, theta: T, dist: k}); cand.before(aR) {
					aR = cand
				}
			}
		}
	}
	return aL, aR
}
