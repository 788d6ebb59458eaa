package core

import (
	"math/rand"
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
// Random operands end their walks within a few offsets. Sparse and
// near-periodic ones keep lanes of 64 and up alive to their threshold
// while other lanes go on dying, so that the early stop does not mark
// them first; a lane whose reach is exactly h then pins the threshold
// on lane words past the first, which the kernel tests alone do not.
// Ladder operands (see ladder) go further: their walks kill at least
// one lane per two lane words at every offset up to 32 and end with no
// lane alive, so a lane q ≥ 64 whose reach is exactly h-1 must come
// out unmarked; that pins the threshold from the other side.
func TestLaneScanCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var ps packedScratch
	var ls laneScan
	edge := 0  // lanes q ≥ 64 whose reach from the center is exactly h
	short := 0 // lanes q ≥ 64 one digit short of h in walks that ran out
	check := func(x, y word.Word) {
		t.Helper()
		d, k := x.Base(), x.Len()
		b := word.PackedBits(d)
		xd, yd := x.Digits(), y.Digits()
		ps.load(x, y)
		ls = laneScan{}
		ls.scan(ps.x, ps.y, k, b)
		for c := -(k - 1); c <= k-1; c++ {
			i := 2*max(c, -c) + b2i(c < 0)
			w, _, _, longest := centerReach(xd, yd, c)
			if 2*longest > w && ls.cand[i>>6]>>(i&63)&1 == 0 {
				t.Fatalf("DG(%d,%d) %v -> %v: shift %d has a run of %d in a window of %d but is no candidate", d, k, x, y, c, longest, w)
			}
		}
		ls = laneScan{b: b}
		loadPlanes(&ls.x, &ls.xr, ps.x, k, b)
		loadPlanes(&ls.y, &ls.yr, ps.y, k, b)
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

	for _, dk := range [][2]int{{2, 64}, {2, 65}, {2, 129}, {2, 130}, {2, 256}, {2, 511}, {2, 1024}, {3, 100}, {4, 200}, {4, 512}} {
		d, k := dk[0], dk[1]
		for i := 0; i < 4; i++ {
			check(word.Random(d, k, rng), word.Random(d, k, rng))
		}
		// Sparse: zeros against ones 40–130 digits apart.
		zero := make([]byte, k)
		sparse := make([]byte, k)
		for i := rng.Intn(40); i < k; i += 40 + rng.Intn(91) {
			sparse[i] = 1
		}
		check(word.MustNew(d, zero), word.MustNew(d, sparse))
		check(word.MustNew(d, sparse), word.MustNew(d, zero))
		// Near-periodic: a period-P word against itself shifted by a
		// multiple of P, with one digit in g changed at random.
		for _, P := range []int{1, 2, 3} {
			for _, g := range []int{8, 24, 64} {
				xd, yd := make([]byte, k), make([]byte, k)
				s := P * rng.Intn(k/P/4+1)
				for i := range xd {
					xd[i] = byte(i % P % d)
				}
				for i := range yd {
					yd[i] = xd[(i+s)%k]
				}
				for _, v := range [][]byte{xd, yd} {
					for i := range v {
						if rng.Intn(g) == 0 {
							v[i] = byte((int(v[i]) + 1 + rng.Intn(d-1)) % d)
						}
					}
				}
				check(word.MustNew(d, xd), word.MustNew(d, yd))
			}
		}
		zw, lw := word.MustNew(d, zero), word.MustNew(d, ladder(k, byte(d-1)))
		check(lw, zw)
		check(zw, lw)
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
