package word

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPackedBits(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 10: 4, 16: 4, 17: 5, 32: 5, 33: 6, 36: 6}
	for base, want := range cases {
		if got := PackedBits(base); got != want {
			t.Errorf("PackedBits(%d) = %d, want %d", base, got, want)
		}
	}
}

// unplane reads digit i of a length-k word back from its planes.
func unplane(planes []uint64, k, i int) byte {
	nw := (k + 63) / 64
	var v byte
	for p := 0; p*nw < len(planes); p++ {
		v |= byte(planes[p*nw+i/64]>>uint(i%64)&1) << uint(p)
	}
	return v
}

// TestPackedRoundTrip reads every digit back from the planes across
// the bases, exhaustively for small k and randomly for the sizes that
// exercise the whole-element and 8-at-a-time paths, and checks the
// length and the clear bits past k.
func TestPackedRoundTrip(t *testing.T) {
	check := func(w Word) {
		t.Helper()
		d, k := w.Base(), w.Len()
		nw := (k + 63) / 64
		planes := w.AppendPlanes(nil)
		if want := PackedBits(d) * nw; len(planes) != want {
			t.Fatalf("DG(%d,%d): %d plane elements, want %d", d, k, len(planes), want)
		}
		for i := 0; i < k; i++ {
			if got := unplane(planes, k, i); got != w.Digit(i) {
				t.Fatalf("DG(%d,%d) %v: digit %d reads %d from the planes, want %d", d, k, w, i, got, w.Digit(i))
			}
		}
		if tail := uint(k % 64); tail != 0 {
			for p := nw - 1; p < len(planes); p += nw {
				if planes[p]>>tail != 0 {
					t.Fatalf("DG(%d,%d) %v: plane %d has set bits past digit %d", d, k, w, p/nw, k)
				}
			}
		}
	}
	for _, tc := range []struct{ d, maxK int }{{2, 8}, {3, 8}, {4, 8}, {5, 6}, {8, 4}} {
		for k := 1; k <= tc.maxK; k++ {
			if _, err := ForEach(tc.d, k, func(w Word) bool {
				check(w)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ d, k int }{
		{2, 63}, {2, 64}, {2, 65}, {2, 100}, {2, 128}, {2, 200}, {2, 1024},
		{3, 31}, {3, 32}, {3, 33}, {3, 100},
		{4, 32}, {4, 33}, {4, 512}, {7, 9}, {8, 341}, {11, 70}, {36, 1}, {36, 64}, {36, 170},
	} {
		for trial := 0; trial < 20; trial++ {
			check(Random(tc.d, tc.k, rng))
		}
	}
}

// TestPackedLayout pins the plane layout: bit i of plane p is bit p
// of digit i, planes back to back.
func TestPackedLayout(t *testing.T) {
	for _, tc := range []struct {
		d    int
		s    string
		want []uint64
	}{
		{2, "1101", []uint64{0b1011}},
		{4, "123", []uint64{0b101, 0b110}},
		{8, "7402", []uint64{0b0001, 0b1001, 0b0011}},
		{36, "z", []uint64{1, 1, 0, 0, 0, 1}},
	} {
		if got := MustParse(tc.d, tc.s).AppendPlanes(nil); !slices.Equal(got, tc.want) {
			t.Errorf("planes(%s base %d) = %b, want %b", tc.s, tc.d, got, tc.want)
		}
	}
}

func TestAppendDigits(t *testing.T) {
	w := MustParse(4, "3210")
	buf := make([]byte, 0, 8)
	got := w.AppendDigits(buf)
	if string(got) != string([]byte{3, 2, 1, 0}) {
		t.Fatalf("AppendDigits = %v", got)
	}
	got2 := w.AppendDigits(got)
	if len(got2) != 8 || &got2[0] != &got[0] {
		t.Fatalf("AppendDigits did not extend in place")
	}
}
