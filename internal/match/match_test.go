package match

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFailureFunctionKnown(t *testing.T) {
	cases := []struct {
		p    string
		want []int
	}{
		{"a", []int{0}},
		{"aa", []int{0, 1}},
		{"ab", []int{0, 0}},
		{"abab", []int{0, 0, 1, 2}},
		{"aabaa", []int{0, 1, 0, 1, 2}},
		{"abcabcab", []int{0, 0, 0, 1, 2, 3, 4, 5}},
		{"aaaa", []int{0, 1, 2, 3}},
	}
	for _, c := range cases {
		got := FailureFunction([]byte(c.p))
		if !intsEq(got, c.want) {
			t.Errorf("FailureFunction(%q) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestFailureFunctionIsLongestProperBorder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		p := randWord(rng, 2+rng.Intn(3), 1+rng.Intn(14))
		fail := FailureFunction(p)
		for tpos := range p {
			want := naiveBorder(p[:tpos+1])
			if fail[tpos] != want {
				t.Fatalf("fail[%d] of %v = %d, want %d", tpos, p, fail[tpos], want)
			}
		}
	}
}

// naiveBorder returns the longest proper border of p by brute force.
func naiveBorder(p []byte) int {
	for s := len(p) - 1; s >= 1; s-- {
		if bytesEq(p[:s], p[len(p)-s:]) {
			return s
		}
	}
	return 0
}

func TestMatchRowEmptyPattern(t *testing.T) {
	row := MatchRow(nil, []byte{0, 1, 0})
	if !intsEq(row, []int{0, 0, 0}) {
		t.Errorf("MatchRow(empty) = %v", row)
	}
}

func TestMatchRowKnown(t *testing.T) {
	// pattern "aba", text "ababa": suffix-of-text-prefix matches.
	row := MatchRow([]byte("aba"), []byte("ababa"))
	want := []int{1, 2, 3, 2, 3}
	if !intsEq(row, want) {
		t.Errorf("MatchRow = %v, want %v", row, want)
	}
}

func TestLRowAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(12)
		x := randWord(rng, 2+rng.Intn(3), k)
		y := randWord(rng, int(maxByte(x))+1, k)
		for i := 0; i < k; i++ {
			row := LRow(x, y, i)
			for j := 0; j < k; j++ {
				if want := NaiveL(x, y, i, j); row[j] != want {
					t.Fatalf("l_{%d,%d}(%v,%v) = %d, want %d", i+1, j+1, x, y, row[j], want)
				}
			}
		}
	}
}

func TestRRowAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(12)
		x := randWord(rng, 2+rng.Intn(3), k)
		y := randWord(rng, int(maxByte(x))+1, k)
		for i := 0; i < k; i++ {
			row := RRow(x, y, i)
			for j := 0; j < k; j++ {
				if want := NaiveR(x, y, i, j); row[j] != want {
					t.Fatalf("r_{%d,%d}(%v,%v) = %d, want %d", i+1, j+1, x, y, row[j], want)
				}
			}
		}
	}
}

func TestMatricesAgreeWithRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 50; iter++ {
		k := 1 + rng.Intn(10)
		x, y := randWord(rng, 2, k), randWord(rng, 2, k)
		lm, rm := LMatrix(x, y), RMatrix(x, y)
		for i := 0; i < k; i++ {
			if !intsEq(lm[i], LRow(x, y, i)) {
				t.Fatalf("LMatrix row %d mismatch", i)
			}
			if !intsEq(rm[i], RRow(x, y, i)) {
				t.Fatalf("RMatrix row %d mismatch", i)
			}
		}
	}
}

func TestMatchingFunctionBoundsRespected(t *testing.T) {
	// Definition (8): l_{i,j} ≤ j and l_{i,j} ≤ k-i+1 (1-based).
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(15)
		x, y := randWord(r, 2, k), randWord(r, 2, k)
		lm := LMatrix(x, y)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if lm[i][j] > j+1 || lm[i][j] > k-i {
					return false
				}
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapKnown(t *testing.T) {
	cases := []struct {
		x, y string
		want int
	}{
		{"0110", "0110", 4},
		{"0110", "1101", 3},
		{"0110", "1010", 2},
		{"0000", "1111", 0},
		{"10", "01", 1},
	}
	for _, c := range cases {
		if got := Overlap(digits(c.x), digits(c.y)); got != c.want {
			t.Errorf("Overlap(%s,%s) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestOverlapEqualsNaiveR(t *testing.T) {
	// Overlap = r_{k,1} (0-based: NaiveR(x, y, k-1, 0)).
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		k := 1 + rng.Intn(16)
		x, y := randWord(rng, 2+rng.Intn(3), k), randWord(rng, 2, k)
		if got, want := Overlap(x, y), NaiveR(x, y, k-1, 0); got != want {
			t.Fatalf("Overlap(%v,%v) = %d, want %d", x, y, got, want)
		}
	}
}

func TestOverlapEmpty(t *testing.T) {
	if Overlap(nil, []byte{1}) != 0 || Overlap([]byte{1}, nil) != 0 {
		t.Error("Overlap with empty operand nonzero")
	}
}

func randWord(rng *rand.Rand, base, k int) []byte {
	w := make([]byte, k)
	for i := range w {
		w[i] = byte(rng.Intn(base))
	}
	return w
}

func maxByte(s []byte) byte {
	var m byte
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

func digits(s string) []byte {
	out := make([]byte, len(s))
	for i := range s {
		out[i] = s[i] - '0'
	}
	return out
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func bytesEq(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
