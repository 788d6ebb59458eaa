package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/word"
)

// centerReach returns, for shift c of x against y, the window length
// w, how many digits from the window's center digit ⌊w/2⌋ up and down
// (the center counted in both) agree, and the window's longest run.
// The window pairs x[i] with y[i+c] for c ≥ 0 and y[i] with x[i-c]
// for c < 0, i ∈ [0, w).
func centerReach(xd, yd []byte, c int) (w, up, dn, longest int) {
	u, v := yd, xd[max(-c, 0):]
	if c >= 0 {
		u, v = xd, yd[c:]
	}
	w = len(v)
	m := w / 2
	for up = 0; m+up < w && u[m+up] == v[m+up]; up++ {
	}
	for dn = 0; m-dn >= 0 && u[m-dn] == v[m-dn]; dn++ {
	}
	for i, run := 0, 0; i < w; i++ {
		if run++; u[i] != v[i] {
			run = 0
		}
		longest = max(longest, run)
	}
	return w, up, dn, longest
}

// TestLaneScanCandidates checks the lane scan of the multi-word packed
// kernels against a direct evaluation of each shift, k = 64…1024:
//
//   - every shift whose longest run covers more than half its window
//     is a candidate (the kernels probe nothing else);
//   - a shift that agrees on h = ⌊(⌊w/2⌋+1)/2⌋+1 digits from its
//     window's center up or down is a candidate, and when its group's
//     walk ends with no lane alive no other shift is. A walk that
//     stops early marks every lane still alive as well.
//
// Every plane count runs, b = 1, 2, 3 and 6. Random operands end their
// walks within a few offsets. Sparse and near-periodic ones keep lanes
// of 64 and up alive to their threshold while other lanes go on dying,
// so that the early stop does not mark them first; a lane whose reach is exactly h then pins the threshold
// on lane words past the first, which the kernel tests alone do not.
// Ladder operands (see ladder) go further: their walks kill at least
// one lane per two lane words at every offset up to 32 and end with no
// lane alive, so a lane q ≥ 64 whose reach is exactly h-1 must come
// out unmarked; that pins the threshold from the other side. Sparse
// (digit 1) and ladder (digit d-1) operands also run with the digit
// 2^(b-1) against zero, and from b = 3 on the near-periodic ones use
// the digits 0 and 2^(b-1), so that their pairs differ in the top
// plane alone; random operands over
// 0, 1 and 2^(b-1) make a scan that skips that plane mark lanes it
// must not.
func TestLaneScanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var ps packedScratch
	ls := new(laneScan)
	edge := 0  // lanes q ≥ 64 whose reach from the center is exactly h
	short := 0 // lanes q ≥ 64 one digit short of h in walks that ran out
	check := func(x, y word.Word) {
		t.Helper()
		d, k := x.Base(), x.Len()
		xd, yd := x.Digits(), y.Digits()
		ps.load(x, y)
		ls.scan(ps.x, ps.y, k)
		for c := -(k - 1); c <= k-1; c++ {
			i := 2*max(c, -c) + b2i(c < 0)
			w, _, _, longest := centerReach(xd, yd, c)
			if 2*longest > w && ls.cand[i>>6]>>(i&63)&1 == 0 {
				t.Fatalf("DG(%d,%d) %v -> %v: shift %d has a run of %d in a window of %d but is no candidate", d, k, x, y, c, longest, w)
			}
		}
		// scan left the planes loaded; walk each group again to read
		// its lanes.
		for p := 0; p <= 1; p++ {
			for neg := 0; neg <= 1; neg++ {
				u, r, qhi := &ls.x, &ls.yr, (k-p)>>1
				if neg == 1 {
					u, r, qhi = &ls.y, &ls.xr, (k-1-p)>>1
				}
				n := ls.group(u, r, p, qhi)
				stopped := false
				for j := 0; j < n; j++ {
					stopped = stopped || ls.up[j]|ls.dn[j] != 0
				}
				for q := 1 - p; q <= qhi; q++ {
					c := k - 2*q - p
					if neg == 1 {
						c = -c
					}
					w, up, dn, _ := centerReach(xd, yd, c)
					h := (w/2+1)/2 + 1
					want := up >= h || dn >= h
					got := ls.lanes[q>>6]>>(q&63)&1 != 0
					// Only w = 2 reads past its window to reach h; there
					// the extra digit may keep the lane alive.
					exact := !stopped && w/2+h <= w
					if want && !got || got && !want && exact {
						t.Fatalf("DG(%d,%d) %v -> %v: shift %d (lane %d, h %d, reach up %d down %d): candidate %v, want %v (walk stopped early: %v)",
							d, k, x, y, c, q, h, up, dn, got, want, stopped)
					}
					if q >= 64 && max(up, dn) == h {
						edge++
					}
					if q >= 64 && max(up, dn) == h-1 && exact {
						short++
					}
				}
			}
		}
	}

	for _, dk := range [][2]int{
		{2, 64}, {2, 65}, {2, 129}, {2, 130}, {2, 256}, {2, 511}, {2, 1024},
		{3, 100}, {4, 200}, {4, 512},
		{5, 129}, {8, 100}, {8, 341}, {33, 65}, {36, 130}, {36, 170},
	} {
		d, k := dk[0], dk[1]
		top := byte(1) << (word.PackedBits(d) - 1)
		for i := 0; i < 4; i++ {
			check(word.Random(d, k, rng), word.Random(d, k, rng))
		}
		// Random over the digits 0, 1 and 2^(b-1): a scan that skips
		// the top plane takes 2^(b-1) for 0, so lanes that die at
		// such a pair live on while the 0/1 pairs still end the walk.
		for i := 0; top > 1 && i < 4; i++ {
			var pair [2][]byte
			for j := range pair {
				pair[j] = make([]byte, k)
				for n := range pair[j] {
					pair[j][n] = [3]byte{0, 1, top}[rng.Intn(3)]
				}
			}
			check(word.MustNew(d, pair[0]), word.MustNew(d, pair[1]))
		}
		// Sparse: zeros against ones, and against the digit 2^(b-1),
		// 40–130 digits apart.
		zero := make([]byte, k)
		zw := word.MustNew(d, zero)
		for _, a := range slices.Compact([]byte{1, top}) {
			sparse := make([]byte, k)
			for i := rng.Intn(40); i < k; i += 40 + rng.Intn(91) {
				sparse[i] = a
			}
			check(zw, word.MustNew(d, sparse))
			check(word.MustNew(d, sparse), zw)
		}
		// Near-periodic: a period-P word against itself shifted by a
		// multiple of P, with one digit in g changed at random.
		for _, P := range []int{1, 2, 3} {
			for _, g := range []int{8, 24, 64} {
				xd, yd := make([]byte, k), make([]byte, k)
				s := P * rng.Intn(k/P/4+1)
				for i := range xd {
					if xd[i] = byte(i % P % d); top > 2 {
						xd[i] = byte(i%P%2) * top
					}
				}
				for i := range yd {
					yd[i] = xd[(i+s)%k]
				}
				for _, v := range [][]byte{xd, yd} {
					for i := range v {
						if rng.Intn(g) != 0 {
							continue
						}
						if top > 2 {
							v[i] ^= top
						} else {
							v[i] = byte((int(v[i]) + 1 + rng.Intn(d-1)) % d)
						}
					}
				}
				check(word.MustNew(d, xd), word.MustNew(d, yd))
			}
		}
		for _, a := range slices.Compact([]byte{byte(d - 1), top}) {
			lw := word.MustNew(d, ladder(k, a))
			check(lw, zw)
			check(zw, lw)
		}
	}
	if edge < 10 {
		t.Fatalf("%d lanes of 64 or more reach exactly their threshold, want ≥ 10", edge)
	}
	if short < 10 {
		t.Fatalf("%d lanes of 64 or more fall one digit short of their threshold in a walk that ran out, want ≥ 10", short)
	}
}

// ladder returns k digits, zero but for the digit a at the defects
// 25, 27, 29, 32, 37, 46, 63, 96, 129, … : gaps of 2, 2, 3, 5, 9, 17,
// 33 and 33, repeated. Against the zero word, the lane of a positive
// shift centered at q (the p = 0 and p = 1 groups alike) dies at the
// offset max(b-q, q-a) for the defects a ≤ q ≤ b around it, and a gap
// of g kills two lanes at each offset ⌈g/2⌉…g-1. One ladder therefore
// kills two lanes at every offset 1…32, and a defect lane each at
// offset 0, so on DG(2,256) the walk never stops early; every lane
// past the first defect dies by offset 32, which ends the walk with
// no lane alive. Lane 64 dies there: the defect at 63 kills its way
// down at once, the one at 96 its way up at offset 32, one offset
// before its threshold h = 33 would mark it. Wider k repeat the
// ladder, adding two kills per offset for each repetition, which keeps
// pace with the lane words.
func ladder(k int, a byte) []byte {
	gaps := [...]int{2, 2, 3, 5, 9, 17, 33, 33}
	v := make([]byte, k)
	for i, g := 25, 0; i < k; i, g = i+gaps[g], (g+1)%len(gaps) {
		v[i] = a
	}
	return v
}
