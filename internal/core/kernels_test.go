package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/word"
)

// TestPackedAnchorsMatchQuadratic pins both packed anchor kernels to
// the quadratic sweep byte for byte — distances, the winning (s, t, θ),
// and the row-major tie-break. Small graphs run exhaustively through
// both kernels, single-word sizes through both, and multi-word sizes
// through packedAnchorsN on random, shifted, near-periodic and
// structured operands.
func TestPackedAnchorsMatchQuadratic(t *testing.T) {
	var sc scratch
	var ps packedScratch
	check := func(x, y word.Word) {
		t.Helper()
		if x.Equal(y) {
			return // handled before the kernels in every caller
		}
		d, k := x.Base(), x.Len()
		b := word.PackedBits(d)
		sc.loadDigits(x, y)
		wantL, wantR := sc.anchorsQuadratic(sc.xd, sc.yd)
		ps.load(x, y)
		if len(ps.x) == 1 {
			gotL, gotR := packedAnchors1(ps.x[0], ps.y[0], k, b, make([]int16, 2*k-1))
			if gotL != wantL || gotR != wantR {
				t.Fatalf("packedAnchors1 DG(%d,%d) %v -> %v:\n  packed L=%+v R=%+v\n  quad   L=%+v R=%+v",
					d, k, x, y, gotL, gotR, wantL, wantR)
			}
		}
		gotL, gotR := packedAnchorsN(ps.x, ps.y, k, b)
		if gotL != wantL || gotR != wantR {
			t.Fatalf("packedAnchorsN DG(%d,%d) %v -> %v:\n  packed L=%+v R=%+v\n  quad   L=%+v R=%+v",
				d, k, x, y, gotL, gotR, wantL, wantR)
		}
	}

	for _, tc := range []struct{ d, maxK int }{{2, 8}, {3, 4}, {4, 4}} {
		for k := 1; k <= tc.maxK; k++ {
			words := allWords(t, tc.d, k)
			for _, x := range words {
				for _, y := range words {
					check(x, y)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ d, k, n int }{
		{2, 64, 500}, {2, 63, 300}, {2, 33, 300}, {2, 17, 300},
		{3, 32, 300}, {3, 20, 300}, {4, 32, 300}, {4, 15, 300},
	} {
		for i := 0; i < tc.n; i++ {
			check(word.Random(tc.d, tc.k, rng), word.Random(tc.d, tc.k, rng))
		}
	}

	// Near-periodic words maximize run counts and tie density.
	for _, k := range []int{64, 63, 48, 32} {
		for _, p := range []int{1, 2, 3, 4, 8} {
			xd := make([]byte, k)
			yd := make([]byte, k)
			zd := make([]byte, k)
			for i := range xd {
				xd[i] = byte(i / p % 2)
				yd[i] = byte((i + 1) / p % 2)
				zd[i] = byte(i / p % 2)
			}
			zd[k-1] ^= 1
			x, y, z := word.MustNew(2, xd), word.MustNew(2, yd), word.MustNew(2, zd)
			check(x, y)
			check(y, x)
			check(x, z)
			check(z, x)
		}
	}

	// Multi-word sizes: runs cross element boundaries and the
	// saturated ties span several words.
	for _, tc := range []struct{ d, k, n int }{
		{2, 65, 60}, {2, 128, 40}, {2, 256, 20}, {2, 512, 4}, {2, 1024, 2},
		{3, 33, 60}, {3, 100, 30},
		{4, 33, 60}, {4, 200, 10}, {4, 512, 2},
	} {
		d, k := tc.d, tc.k
		for i := 0; i < tc.n; i++ {
			x, y := word.Random(d, k, rng), word.Random(d, k, rng)
			check(x, y)
			// y a shift of x: one long run at shift ±s.
			s := 1 + rng.Intn(k/2)
			xd := x.Digits()
			sd := append(append([]byte{}, xd[s:]...), y.Digits()[:s]...)
			check(x, word.MustNew(d, sd))
			check(word.MustNew(d, sd), x)
		}
		var structured []word.Word
		for _, digit := range []func(i int) int{
			func(i int) int { return i % 2 },           // alternating
			func(i int) int { return i / 3 % 2 },       // near-periodic
			func(i int) int { return i % 3 },           // period 3
			func(i int) int { return i * 2 / k },       // block halves
			func(i int) int { return 0 },               // all zeros ...
			func(i int) int { return b2i(i == k/3) },   // ... but one digit
			func(i int) int { return b2i(i == k-1) },   // ... but the last
			func(i int) int { return (i + 1) % 2 },     // alternating, shifted
			func(i int) int { return (i + 1) / 3 % 2 }, // near-periodic, shifted
		} {
			wd := make([]byte, k)
			for i := range wd {
				wd[i] = byte(digit(i) % d)
			}
			structured = append(structured, word.MustNew(d, wd))
		}
		// The quadratic reference costs ~45 ms a pair at k=1024, so
		// large sizes sample the structured pairs.
		if k <= 256 {
			for _, x := range structured {
				for _, y := range structured {
					check(x, y)
				}
			}
			continue
		}
		for i := 0; i < 8; i++ {
			check(structured[rng.Intn(len(structured))], structured[rng.Intn(len(structured))])
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// TestPackedDistanceMatchesLinear pins both center-digit distance
// kernels (single- and multi-word) to the linear scratch evaluation.
// The single-word sizes also run through the multi-word path, so its
// window edge cases are exercised where a second oracle exists.
func TestPackedDistanceMatchesLinear(t *testing.T) {
	var sc scratch
	var ps packedScratch
	check := func(x, y word.Word) {
		t.Helper()
		if x.Equal(y) {
			return
		}
		d, k := x.Base(), x.Len()
		b := word.PackedBits(d)
		want, err := sc.UndirectedDistanceLinear(x, y)
		if err != nil {
			t.Fatal(err)
		}
		ps.load(x, y)
		if packedSingleWord(d, k) {
			dL, dR := packedDistance1(ps.x[0], ps.y[0], k, b)
			if got := clampDist(k, dL, dR); got != want {
				t.Fatalf("packedDistance1 DG(%d,%d) %v -> %v: got %d, want %d", d, k, x, y, got, want)
			}
		}
		dL, dR := packedDistanceN(ps.x, ps.y, k, b)
		if got := clampDist(k, dL, dR); got != want {
			t.Fatalf("packedDistanceN DG(%d,%d) %v -> %v: got %d, want %d", d, k, x, y, got, want)
		}
	}

	for _, tc := range []struct{ d, maxK int }{{2, 8}, {3, 4}, {4, 4}} {
		for k := 1; k <= tc.maxK; k++ {
			words := allWords(t, tc.d, k)
			for _, x := range words {
				for _, y := range words {
					check(x, y)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ d, k, n int }{
		{2, 64, 400}, {2, 65, 200}, {2, 100, 200}, {2, 128, 100},
		{2, 129, 100}, {2, 511, 50}, {2, 1024, 30},
		{3, 32, 200}, {3, 33, 100}, {3, 100, 100}, {3, 512, 30},
		{4, 32, 200}, {4, 33, 100}, {4, 200, 50}, {4, 512, 30},
	} {
		for i := 0; i < tc.n; i++ {
			check(word.Random(tc.d, tc.k, rng), word.Random(tc.d, tc.k, rng))
		}
	}

	// Near-periodic operands at multi-word sizes: long runs crossing
	// element boundaries.
	for _, tc := range []struct{ d, k int }{{2, 100}, {2, 130}, {4, 40}, {3, 70}} {
		for _, p := range []int{1, 2, 7, 13} {
			xd := make([]byte, tc.k)
			yd := make([]byte, tc.k)
			for i := range xd {
				xd[i] = byte(i / p % 2)
				yd[i] = byte((i + 3) / p % 2)
			}
			check(word.MustNew(tc.d, xd), word.MustNew(tc.d, yd))
		}
	}
}

// TestPackedOverlapMatchesDirected pins the packed suffix/prefix scan
// to Property 1's Morris-Pratt evaluation.
func TestPackedOverlapMatchesDirected(t *testing.T) {
	var sc scratch
	var ps packedScratch
	check := func(x, y word.Word) {
		t.Helper()
		if x.Equal(y) {
			return
		}
		d, k := x.Base(), x.Len()
		want, err := sc.DirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		ps.load(x, y)
		if got := k - packedOverlap1(ps.x[0], ps.y[0], k, word.PackedBits(d)); got != want {
			t.Fatalf("packedOverlap1 DG(%d,%d) %v -> %v: got %d, want %d", d, k, x, y, got, want)
		}
	}
	for _, tc := range []struct{ d, maxK int }{{2, 8}, {3, 4}, {4, 4}} {
		for k := 1; k <= tc.maxK; k++ {
			words := allWords(t, tc.d, k)
			for _, x := range words {
				for _, y := range words {
					check(x, y)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ d, k, n int }{{2, 64, 400}, {2, 40, 200}, {3, 32, 200}, {4, 32, 200}} {
		for i := 0; i < tc.n; i++ {
			x, y := word.Random(tc.d, tc.k, rng), word.Random(tc.d, tc.k, rng)
			check(x, y)
			// Force large overlaps: y = shifted x.
			for a := 0; a < tc.d; a++ {
				check(x, x.ShiftLeft(byte(a)))
			}
		}
	}
}

// TestKernelsTierSelection pins the ladder: exact tier per (d, k,
// budget) permutation.
func TestKernelsTierSelection(t *testing.T) {
	def := NewKernels(KernelConfig{SyncTableBuild: true})
	for _, tc := range []struct {
		d, k int
		want Tier
	}{
		{2, 6, TierTable},   // 7·64² = 28 KiB fits the default MiB
		{3, 4, TierTable},   // 7·81² = 45 KiB
		{2, 64, TierPacked}, // 7·(2^64)² overflows; 64 bits pack
		{2, 1024, TierPacked},
		{2, 1025, TierScratch}, // past maxPackedBits
		{3, 512, TierPacked},   // 1024 packed bits exactly
		{3, 513, TierScratch},
		{4, 512, TierPacked},
		{5, 4, TierScratch}, // 7·625² = 2.7 MiB over budget; base 5 doesn't pack
		{7, 30, TierScratch},
	} {
		if got := def.TierFor(tc.d, tc.k); got != tc.want {
			t.Errorf("default budget: TierFor(%d,%d) = %v, want %v", tc.d, tc.k, got, tc.want)
		}
	}

	noTable := NewKernels(KernelConfig{TableBudget: -1})
	if got := noTable.TierFor(2, 6); got != TierPacked {
		t.Errorf("TableBudget<0: TierFor(2,6) = %v, want packed", got)
	}
	scratchOnly := NewKernels(KernelConfig{TableBudget: -1, DisablePacked: true})
	if got := scratchOnly.TierFor(2, 6); got != TierScratch {
		t.Errorf("scratch-only: TierFor(2,6) = %v, want scratch", got)
	}

	// The budget boundary is exact: DG(2,6) needs 7·64² = 28672 bytes.
	size, ok := tableSize(2, 6)
	if !ok || size != 28672 {
		t.Fatalf("tableSize(2,6) = %d,%v, want 28672,true", size, ok)
	}
	under := NewKernels(KernelConfig{TableBudget: size - 1, SyncTableBuild: true})
	if got := under.TierFor(2, 6); got != TierPacked {
		t.Errorf("budget size-1: TierFor(2,6) = %v, want packed", got)
	}
	at := NewKernels(KernelConfig{TableBudget: size, SyncTableBuild: true})
	if got := at.TierFor(2, 6); got != TierTable {
		t.Errorf("budget size: TierFor(2,6) = %v, want table", got)
	}

	// Asynchronous build: the first query may fall back, but the tier
	// upgrades once the build lands — the pending fallback must not be
	// memoized.
	async := NewKernels(KernelConfig{})
	deadline := time.Now().Add(5 * time.Second)
	for async.TierFor(2, 5) != TierTable {
		if time.Now().After(deadline) {
			t.Fatal("async table build for DG(2,5) never landed")
		}
		time.Sleep(time.Millisecond)
	}
}

// kernelRefRoute is the canonical Algorithm 2 path for DG(d,k),
// computed entirely outside the tier engine.
func kernelRefRoute(t testing.TB, x, y word.Word) Path {
	t.Helper()
	p, err := RouteUndirected(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKernelsMatchScratch runs the full engine over every tier and
// compares each answer with the tier-free reference evaluations.
func TestKernelsMatchScratch(t *testing.T) {
	var sc scratch
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name string
		d, k int
		cfg  KernelConfig
		want Tier
	}{
		{"table-2-6", 2, 6, KernelConfig{SyncTableBuild: true}, TierTable},
		{"table-3-4", 3, 4, KernelConfig{SyncTableBuild: true}, TierTable},
		{"packed-2-12", 2, 12, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-2-64", 2, 64, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-4-20", 4, 20, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-3-25", 3, 25, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-multi-2-100", 2, 100, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-multi-4-40", 4, 40, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-multi-2-256", 2, 256, KernelConfig{TableBudget: -1}, TierPacked},
		{"packed-multi-3-100", 3, 100, KernelConfig{TableBudget: -1}, TierPacked},
		{"scratch-5-4", 5, 4, KernelConfig{TableBudget: -1}, TierScratch},
		{"scratch-2-12", 2, 12, KernelConfig{TableBudget: -1, DisablePacked: true}, TierScratch},
		{"scratch-multi-2-100", 2, 100, KernelConfig{TableBudget: -1, DisablePacked: true}, TierScratch},
		{"scratch-2-1030", 2, 1030, KernelConfig{TableBudget: -1}, TierScratch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kn := NewKernels(tc.cfg)
			if got := kn.TierFor(tc.d, tc.k); got != tc.want {
				t.Fatalf("TierFor(%d,%d) = %v, want %v", tc.d, tc.k, got, tc.want)
			}
			var pairs [][2]word.Word
			if n, _ := word.Count(tc.d, tc.k); n > 0 && n <= 100 {
				words := allWords(t, tc.d, tc.k)
				for _, x := range words {
					for _, y := range words {
						pairs = append(pairs, [2]word.Word{x, y})
					}
				}
			} else {
				n := 200
				if tc.k > 128 {
					n = 40 // the references are quadratic or build a tree per call
				}
				for i := 0; i < n; i++ {
					x := word.Random(tc.d, tc.k, rng)
					y := word.Random(tc.d, tc.k, rng)
					pairs = append(pairs, [2]word.Word{x, y}, [2]word.Word{x, x})
				}
			}
			for _, p := range pairs {
				x, y := p[0], p[1]
				wantU, err := sc.UndirectedDistanceLinear(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if x.Equal(y) {
					wantU = 0
				}
				gotU, err := kn.UndirectedDistance(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if gotU != wantU {
					t.Fatalf("UndirectedDistance %v -> %v: got %d, want %d", x, y, gotU, wantU)
				}
				wantD, err := sc.DirectedDistance(x, y)
				if err != nil {
					t.Fatal(err)
				}
				gotD, err := kn.DirectedDistance(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if gotD != wantD {
					t.Fatalf("DirectedDistance %v -> %v: got %d, want %d", x, y, gotD, wantD)
				}
				gotP, err := kn.RouteUndirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if x.Equal(y) {
					if len(gotP) != 0 {
						t.Fatalf("RouteUndirected %v -> %v: non-empty %v", x, y, gotP)
					}
				} else {
					wantP := kernelRefRoute(t, x, y)
					if !reflect.DeepEqual(gotP, wantP) {
						t.Fatalf("RouteUndirected %v -> %v:\n  got  %v\n  want %v", x, y, gotP, wantP)
					}
					gotH, ok, err := kn.NextHopUndirected(x, y)
					if err != nil || !ok {
						t.Fatalf("NextHopUndirected %v -> %v: ok=%v err=%v", x, y, ok, err)
					}
					if gotH != wantP[0] {
						t.Fatalf("NextHopUndirected %v -> %v: got %v, want %v", x, y, gotH, wantP[0])
					}
					wantDP, err := RouteDirected(x, y)
					if err != nil {
						t.Fatal(err)
					}
					gotDH, gotOK, err := kn.NextHopDirected(x, y)
					if err != nil || !gotOK || gotDH != wantDP[0] {
						t.Fatalf("NextHopDirected %v -> %v: got %v,%v,%v want %v", x, y, gotDH, gotOK, err, wantDP[0])
					}
				}
			}
		})
	}
}

// TestFrameMatchesScalar pins the batch frame to the scalar methods on
// every tier, and checks operand dedup actually shares packed forms.
func TestFrameMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		name string
		d, k int
		cfg  KernelConfig
	}{
		{"packed-2-64", 2, 64, KernelConfig{TableBudget: -1}},
		{"packed-multi-2-100", 2, 100, KernelConfig{TableBudget: -1}},
		{"packed-multi-3-100", 3, 100, KernelConfig{TableBudget: -1}},
		{"packed-4-20", 4, 20, KernelConfig{TableBudget: -1}},
		{"table-2-6", 2, 6, KernelConfig{SyncTableBuild: true}},
		{"scratch-5-4", 5, 4, KernelConfig{TableBudget: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kn := NewKernels(tc.cfg)
			ref := NewKernels(tc.cfg)
			// A batch shaped like real traffic: one source against a
			// run of destinations, consecutive repeats included.
			src := word.Random(tc.d, tc.k, rng)
			var qs [][2]word.Word
			prev := src
			for i := 0; i < 12; i++ {
				dst := word.Random(tc.d, tc.k, rng)
				qs = append(qs, [2]word.Word{src, dst}, [2]word.Word{src, dst}, [2]word.Word{prev, dst})
				prev = dst
			}
			qs = append(qs, [2]word.Word{src, src})
			f := kn.Frame()
			for _, q := range qs {
				if _, err := f.Add(q[0], q[1]); err != nil {
					t.Fatal(err)
				}
			}
			if f.Len() != len(qs) {
				t.Fatalf("Len = %d, want %d", f.Len(), len(qs))
			}
			if kn.TierFor(tc.d, tc.k) == TierPacked {
				// Slots 0 and 1 share src and dst; slot 1 must reuse
				// both packed forms.
				if f.slots[1].px != f.slots[0].px || f.slots[1].py != f.slots[0].py {
					t.Fatalf("consecutive identical pair not deduped: %+v vs %+v", f.slots[1], f.slots[0])
				}
			}
			for i, q := range qs {
				x, y := q[0], q[1]
				wantU, err := ref.UndirectedDistance(x, y)
				if err != nil {
					t.Fatal(err)
				}
				gotU, err := f.UndirectedDistance(i)
				if err != nil || gotU != wantU {
					t.Fatalf("frame UndirectedDistance[%d] %v -> %v: got %d,%v want %d", i, x, y, gotU, err, wantU)
				}
				wantD, err := ref.DirectedDistance(x, y)
				if err != nil {
					t.Fatal(err)
				}
				gotD, err := f.DirectedDistance(i)
				if err != nil || gotD != wantD {
					t.Fatalf("frame DirectedDistance[%d] %v -> %v: got %d,%v want %d", i, x, y, gotD, err, wantD)
				}
				wantP, err := ref.RouteUndirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				gotP, err := f.RouteUndirected(i)
				if err != nil || !reflect.DeepEqual(gotP, wantP) {
					t.Fatalf("frame RouteUndirected[%d] %v -> %v:\n  got  %v (%v)\n  want %v", i, x, y, gotP, err, wantP)
				}
				wantH, wantOK, err := ref.NextHopUndirected(x, y)
				if err != nil {
					t.Fatal(err)
				}
				gotH, gotOK, err := f.NextHopUndirected(i)
				if err != nil || gotOK != wantOK || gotH != wantH {
					t.Fatalf("frame NextHopUndirected[%d] %v -> %v: got %v,%v,%v want %v,%v", i, x, y, gotH, gotOK, err, wantH, wantOK)
				}
			}
			// Reset reuses the buffers and clears the slots.
			f2 := kn.Frame()
			if f2.Len() != 0 {
				t.Fatalf("fresh frame Len = %d", f2.Len())
			}
		})
	}
}

// TestKernelAllocBudgets pins the hot paths to their allocation
// budgets: zero for distances and next hops on the packed and table
// tiers, one (the returned path) for routes.
func TestKernelAllocBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type probe struct {
		name string
		kn   *Kernels
		x, y word.Word
	}
	probes := []probe{
		{"packed-2-64", NewKernels(KernelConfig{TableBudget: -1}), word.Random(2, 64, rng), word.Random(2, 64, rng)},
		{"packed-4-32", NewKernels(KernelConfig{TableBudget: -1}), word.Random(4, 32, rng), word.Random(4, 32, rng)},
		{"packed-multi-2-200", NewKernels(KernelConfig{TableBudget: -1}), word.Random(2, 200, rng), word.Random(2, 200, rng)},
		{"table-2-6", NewKernels(KernelConfig{SyncTableBuild: true}), word.Random(2, 6, rng), word.Random(2, 6, rng)},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			kn, x, y := p.kn, p.x, p.y
			if _, err := kn.UndirectedDistance(x, y); err != nil {
				t.Fatal(err)
			}
			if _, _, err := kn.NextHopUndirected(x, y); err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(200, func() {
				if _, err := kn.UndirectedDistance(x, y); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("UndirectedDistance: %v allocs/op, want 0", a)
			}
			if a := testing.AllocsPerRun(200, func() {
				if _, err := kn.DirectedDistance(x, y); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("DirectedDistance: %v allocs/op, want 0", a)
			}
			if a := testing.AllocsPerRun(200, func() {
				if _, _, err := kn.NextHopUndirected(x, y); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("NextHopUndirected: %v allocs/op, want 0", a)
			}
			if a := testing.AllocsPerRun(200, func() {
				if _, err := kn.RouteUndirected(x, y); err != nil {
					t.Fatal(err)
				}
			}); a > 1 {
				t.Errorf("RouteUndirected: %v allocs/op, want <= 1", a)
			}
		})
	}

	// The frame: once warm, a whole add-and-evaluate batch allocates
	// nothing (paths excepted, so the batch below asks distances and
	// next hops only).
	t.Run("frame-batch", func(t *testing.T) {
		kn := NewKernels(KernelConfig{TableBudget: -1})
		src := word.Random(2, 64, rng)
		dsts := make([]word.Word, 16)
		for i := range dsts {
			dsts[i] = word.Random(2, 64, rng)
		}
		batch := func() {
			f := kn.Frame()
			for _, d := range dsts {
				i, err := f.Add(src, d)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.UndirectedDistance(i); err != nil {
					t.Fatal(err)
				}
				if _, _, err := f.NextHopUndirected(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		batch() // warm the frame buffers
		if a := testing.AllocsPerRun(100, batch); a != 0 {
			t.Errorf("warm frame batch: %v allocs/run, want 0", a)
		}
	})
}

// TestDistanceColumn compares every tier's distance column with the
// tier-free Theorem 2 and Property 1 functions toward every
// destination, and checks that a column of the wrong length is
// refused.
func TestDistanceColumn(t *testing.T) {
	configs := map[string]KernelConfig{
		"scratch": {TableBudget: -1, DisablePacked: true},
		"packed":  {TableBudget: -1},
		"table":   {SyncTableBuild: true},
	}
	for _, dk := range [][2]int{{2, 5}, {3, 3}, {5, 2}} {
		d, k := dk[0], dk[1]
		var words []word.Word
		if _, err := word.ForEach(d, k, func(w word.Word) bool {
			words = append(words, w)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for name, cfg := range configs {
			kn := NewKernels(cfg)
			col := make([]int32, len(words))
			for _, y := range words {
				for _, directed := range []bool{false, true} {
					if err := kn.DistanceColumn(y, directed, col); err != nil {
						t.Fatal(err)
					}
					for v, x := range words {
						want, err := UndirectedDistance(x, y)
						if directed {
							want, err = DirectedDistance(x, y)
						}
						if err != nil {
							t.Fatal(err)
						}
						if int(col[v]) != want {
							t.Fatalf("%s DG(%d,%d) directed=%v: column toward %v reads %d at %v, want %d", name, d, k, directed, y, col[v], x, want)
						}
					}
				}
			}
			if err := kn.DistanceColumn(words[0], false, col[1:]); err == nil {
				t.Errorf("%s DG(%d,%d): accepted a column one entry short", name, d, k)
			}
		}
	}
}
