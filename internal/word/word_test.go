package word

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidatesBase(t *testing.T) {
	for _, base := range []int{-1, 0, 1, 37, 100} {
		if _, err := New(base, []byte{0}); err == nil {
			t.Errorf("New(base=%d) accepted invalid base", base)
		}
	}
	for _, base := range []int{2, 3, 10, 36} {
		if _, err := New(base, []byte{0, 1}); err != nil {
			t.Errorf("New(base=%d) rejected valid base: %v", base, err)
		}
	}
}

func TestNewValidatesDigits(t *testing.T) {
	if _, err := New(2, []byte{0, 2}); err == nil {
		t.Error("New accepted digit 2 in base 2")
	}
	if _, err := New(2, nil); err == nil {
		t.Error("New accepted empty digit slice")
	}
}

func TestNewCopiesDigits(t *testing.T) {
	src := []byte{0, 1, 0}
	w := MustNew(2, src)
	src[0] = 1
	if w.Digit(0) != 0 {
		t.Error("New aliased the caller's slice")
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		base int
		s    string
	}{
		{2, "0"}, {2, "0110"}, {2, "1111"},
		{3, "0212"}, {10, "90210"}, {16, "a3f0"}, {36, "z0a9"},
	}
	for _, c := range cases {
		w, err := Parse(c.base, c.s)
		if err != nil {
			t.Fatalf("Parse(%d, %q): %v", c.base, c.s, err)
		}
		if got := w.String(); got != c.s {
			t.Errorf("Parse(%d, %q).String() = %q", c.base, c.s, got)
		}
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	if _, err := Parse(2, "012"); err == nil {
		t.Error("Parse accepted digit 2 in base 2")
	}
	if _, err := Parse(2, ""); err == nil {
		t.Error("Parse accepted empty string")
	}
	if _, err := Parse(2, "0 1"); err == nil {
		t.Error("Parse accepted a space")
	}
	if _, err := Parse(16, "A3"); err == nil {
		t.Error("Parse accepted uppercase digit")
	}
}

func TestShiftLeft(t *testing.T) {
	// X = 0110, X⁻(1) = 1101.
	x := MustParse(2, "0110")
	if got := x.ShiftLeft(1).String(); got != "1101" {
		t.Errorf("ShiftLeft = %q, want 1101", got)
	}
	if got := x.ShiftLeft(0).String(); got != "1100" {
		t.Errorf("ShiftLeft = %q, want 1100", got)
	}
	// Original untouched (immutability).
	if x.String() != "0110" {
		t.Error("ShiftLeft mutated receiver")
	}
}

func TestShiftRight(t *testing.T) {
	// X = 0110, X⁺(1) = 1011.
	x := MustParse(2, "0110")
	if got := x.ShiftRight(1).String(); got != "1011" {
		t.Errorf("ShiftRight = %q, want 1011", got)
	}
	if got := x.ShiftRight(0).String(); got != "0011" {
		t.Errorf("ShiftRight = %q, want 0011", got)
	}
	if x.String() != "0110" {
		t.Error("ShiftRight mutated receiver")
	}
}

func TestShiftsAreInverse(t *testing.T) {
	// X⁺(a) then dropping the inserted digit via ShiftLeft(old last)
	// restores X: ShiftLeft(x_k)(X⁺(a)) == X.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		base := 2 + rng.Intn(4)
		k := 1 + rng.Intn(8)
		x := Random(base, k, rng)
		a := byte(rng.Intn(base))
		last := x.Digit(k - 1)
		if got := x.ShiftRight(a).ShiftLeft(last); !got.Equal(x) {
			t.Fatalf("ShiftRight(%d) then ShiftLeft(%d) of %v = %v", a, last, x, got)
		}
		first := x.Digit(0)
		if got := x.ShiftLeft(a).ShiftRight(first); !got.Equal(x) {
			t.Fatalf("ShiftLeft(%d) then ShiftRight(%d) of %v = %v", a, first, x, got)
		}
	}
}

func TestShiftPanicsOnBadDigit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ShiftLeft did not panic on out-of-range digit")
		}
	}()
	MustParse(2, "01").ShiftLeft(2)
}

func TestReverse(t *testing.T) {
	if got := MustParse(2, "0110").Reverse().String(); got != "0110" {
		t.Errorf("Reverse palindrome = %q", got)
	}
	if got := MustParse(2, "0010").Reverse().String(); got != "0100" {
		t.Errorf("Reverse = %q, want 0100", got)
	}
	if got := MustParse(3, "012").Reverse().String(); got != "210" {
		t.Errorf("Reverse = %q, want 210", got)
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := Random(2+rng.Intn(9), 1+rng.Intn(12), rng)
		return w.Reverse().Reverse().Equal(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	for _, base := range []int{2, 3, 5} {
		for k := 1; k <= 5; k++ {
			n, err := Count(base, k)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				w, err := Unrank(base, k, uint64(r))
				if err != nil {
					t.Fatalf("Unrank(%d,%d,%d): %v", base, k, r, err)
				}
				if got := w.MustRank(); got != uint64(r) {
					t.Fatalf("Rank(Unrank(%d)) = %d", r, got)
				}
			}
		}
	}
}

func TestUnrankOutOfRange(t *testing.T) {
	if _, err := Unrank(2, 3, 8); err == nil {
		t.Error("Unrank accepted rank d^k")
	}
}

func TestCount(t *testing.T) {
	cases := []struct{ base, k, want int }{
		{2, 1, 2}, {2, 10, 1024}, {3, 4, 81}, {10, 3, 1000},
	}
	for _, c := range cases {
		got, err := Count(c.base, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.base, c.k, got, c.want)
		}
	}
	if _, err := Count(2, 200); err == nil {
		t.Error("Count accepted overflowing 2^200")
	}
}

func TestForEachEnumeratesAllDistinct(t *testing.T) {
	seen := make(map[string]bool)
	var prev Word
	done, err := ForEach(3, 3, func(w Word) bool {
		if seen[w.String()] {
			t.Fatalf("duplicate word %v", w)
		}
		seen[w.String()] = true
		if !prev.IsZero() && prev.Compare(w) >= 0 {
			t.Fatalf("enumeration not strictly increasing: %v then %v", prev, w)
		}
		prev = w
		return true
	})
	if err != nil || !done {
		t.Fatalf("ForEach: done=%v err=%v", done, err)
	}
	if len(seen) != 27 {
		t.Errorf("enumerated %d words, want 27", len(seen))
	}
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	done, err := ForEach(2, 4, func(w Word) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if done || count != 5 {
		t.Errorf("early stop: done=%v count=%d", done, count)
	}
}

func TestForEachWordsAreIndependent(t *testing.T) {
	var all []Word
	if _, err := ForEach(2, 2, func(w Word) bool {
		all = append(all, w)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"00", "01", "10", "11"}
	for i, w := range all {
		if w.String() != want[i] {
			t.Errorf("retained word %d = %q, want %q (mutation by enumeration?)", i, w, want[i])
		}
	}
}

// TestForEachInPlaceRanks: the i-th word ForEachInPlace hands out has
// rank i, and the whole enumeration allocates only its digit buffer.
func TestForEachInPlaceRanks(t *testing.T) {
	i := uint64(0)
	if _, err := ForEachInPlace(3, 4, func(w Word) bool {
		if r := w.MustRank(); r != i {
			t.Fatalf("word %d = %v has rank %d", i, w, r)
		}
		i++
		return true
	}); err != nil || i != 81 {
		t.Fatalf("ForEachInPlace: %d words, err %v", i, err)
	}
	if a := testing.AllocsPerRun(10, func() {
		_, _ = ForEachInPlace(2, 8, func(Word) bool { return true })
	}); a != 1 {
		t.Errorf("ForEachInPlace: %v allocs, want 1", a)
	}
}

func TestPrefixSuffix(t *testing.T) {
	w := MustParse(2, "01101")
	if got := string(mustStr(w.Prefix(3))); got != "011" {
		t.Errorf("Prefix(3) = %q", got)
	}
	if got := string(mustStr(w.Suffix(2))); got != "01" {
		t.Errorf("Suffix(2) = %q", got)
	}
	if len(w.Prefix(0)) != 0 || len(w.Suffix(0)) != 0 {
		t.Error("zero-length prefix/suffix not empty")
	}
}

func mustStr(digits []byte) []byte {
	out := make([]byte, len(digits))
	for i, d := range digits {
		out[i] = '0' + d
	}
	return out
}

func TestOverlapSuffixPrefix(t *testing.T) {
	cases := []struct {
		x, y string
		want int
	}{
		{"0110", "0110", 4}, // X == Y
		{"0110", "1101", 3},
		{"0110", "1010", 2},
		{"0110", "0011", 1},
		{"0000", "1111", 0},
		{"0101", "0101", 4},
		{"1100", "0011", 2},
	}
	for _, c := range cases {
		got, err := OverlapSuffixPrefix(MustParse(2, c.x), MustParse(2, c.y))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Overlap(%s,%s) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestOverlapMixedOperands(t *testing.T) {
	if _, err := OverlapSuffixPrefix(MustParse(2, "01"), MustParse(3, "01")); err == nil {
		t.Error("accepted mixed bases")
	}
	if _, err := OverlapSuffixPrefix(MustParse(2, "01"), MustParse(2, "011")); err == nil {
		t.Error("accepted mixed lengths")
	}
}

func TestRandomIsInAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		w := Random(3, 6, rng)
		if w.Base() != 3 || w.Len() != 6 {
			t.Fatalf("Random produced %v", w)
		}
		for j := 0; j < w.Len(); j++ {
			if w.Digit(j) >= 3 {
				t.Fatalf("Random digit out of range: %v", w)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(2, 16, rand.New(rand.NewSource(42)))
	b := Random(2, 16, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Error("Random not deterministic for equal seeds")
	}
}

func TestAppend(t *testing.T) {
	w := MustParse(2, "01")
	got, err := w.Append(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "0110" {
		t.Errorf("Append = %q", got)
	}
	if _, err := w.Append(2); err == nil {
		t.Error("Append accepted out-of-alphabet digit")
	}
}

func TestCompare(t *testing.T) {
	a, b := MustParse(2, "010"), MustParse(2, "011")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
}

func TestZeros(t *testing.T) {
	w, err := Zeros(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != "0000" {
		t.Errorf("Zeros = %q", w)
	}
	if _, err := Zeros(2, 0); err == nil {
		t.Error("Zeros accepted k=0")
	}
}

func TestDigitsCopy(t *testing.T) {
	w := MustParse(2, "0110")
	d := w.Digits()
	d[0] = 1
	if w.Digit(0) != 0 {
		t.Error("Digits returned aliased storage")
	}
}

func TestPropertyShiftLengthPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 2 + rng.Intn(9)
		k := 1 + rng.Intn(10)
		w := Random(base, k, rng)
		a := byte(rng.Intn(base))
		return w.ShiftLeft(a).Len() == k && w.ShiftRight(a).Len() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRankOrderAgreesWithCompare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 2 + rng.Intn(4)
		k := 1 + rng.Intn(8)
		a, b := Random(base, k, rng), Random(base, k, rng)
		ra, rb := a.MustRank(), b.MustRank()
		switch a.Compare(b) {
		case -1:
			return ra < rb
		case 1:
			return ra > rb
		default:
			return ra == rb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
