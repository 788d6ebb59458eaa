// Package match implements the string-matching machinery of Section 3.2
// of the paper: the Morris–Pratt failure function and Algorithm 3, which
// generalizes it to compute the matching functions
//
//	l_{i,j}(X,Y) = max{ s : s ≤ j, s ≤ k-i+1,
//	                    x_i…x_{i+s-1} = y_{j-s+1}…y_j }
//	r_{i,j}(X,Y) = max{ s : s ≤ i, s ≤ k-j+1,
//	                    x_{i-s+1}…x_i = y_j…y_{j+s-1} }
//
// (equations (8) and (9); indices are 1-based in the paper, 0-based
// here). l_{i,j} is the length of the longest substring of X starting
// at position i that matches a substring of Y terminating at position
// j; r is its mirror image. The two are related by reversal:
//
//	r_{i,j}(X,Y) = l_{k+1-i, k+1-j}(X̄, Ȳ)
//
// which is how RMatrix and RRow are implemented.
//
// The paper's Algorithm 3 (line 11) falls back with "h = l_{i,i+h-1}";
// the fallback must use the failure function of the pattern,
// c_{i,i+h-1} — the classical Morris–Pratt step — which is what this
// implementation does. The quadratic Naive* functions act as the
// reference oracle in tests.
package match

// FailureFunction computes the Morris–Pratt failure function of the
// pattern p: fail[t] is the length of the longest proper border of
// p[0..t] (a border is a string that is both a proper prefix and a
// suffix). This is c_{1,t+1} of the paper for the pattern p.
// The returned slice has len(p) entries; fail[0] is always 0.
func FailureFunction(p []byte) []int {
	fail := make([]int, len(p))
	failureInto(fail, p)
	return fail
}

// MatchRow is Algorithm 3: it scans text with the Morris–Pratt
// automaton of pattern and returns row[j] = the length of the longest
// prefix of pattern that is a suffix of text[0..j], for every j.
// With pattern = X[i..] and text = Y this is the row l_{i+1, ·}(X,Y).
// Runs in O(len(pattern) + len(text)) time.
func MatchRow(pattern, text []byte) []int {
	row := make([]int, len(text))
	if len(pattern) == 0 {
		return row
	}
	s := GetScratch()
	s.fail = grow(s.fail, len(pattern))
	matchRowInto(s.fail, row, pattern, text)
	PutScratch(s)
	return row
}

// LRow returns the row l_{i+1, ·}(X,Y) for the given 0-based start
// index i: out[j] = l_{i+1, j+1}(X,Y).
func LRow(x, y []byte, i int) []int {
	return MatchRow(x[i:], y)
}

// RRow returns the row r_{i+1, ·}(X,Y) for the given 0-based index i:
// out[j] = r_{i+1, j+1}(X,Y). The reversal identity
// r_{i,j}(X,Y) = l_{k+1-i, k+1-j}(X̄,Ȳ) is evaluated by index
// arithmetic on the original words — no reversed copies are
// materialized (matchRowRevInto).
func RRow(x, y []byte, i int) []int {
	out := make([]int, len(y))
	s := GetScratch()
	s.fail = grow(s.fail, i+1)
	matchRowRevInto(s.fail, out, x, i, y)
	PutScratch(s)
	return out
}

// LMatrix computes the full matrix L[i][j] = l_{i+1,j+1}(X,Y) in
// O(k²) time — the cost profile of the paper's Algorithm 2.
func LMatrix(x, y []byte) [][]int {
	m := make([][]int, len(x))
	for i := range m {
		m[i] = LRow(x, y, i)
	}
	return m
}

// RMatrix computes the full matrix R[i][j] = r_{i+1,j+1}(X,Y) in O(k²)
// time via the reversal identity, one reversed-index scan per row.
func RMatrix(x, y []byte) [][]int {
	m := make([][]int, len(x))
	for i := range m {
		m[i] = RRow(x, y, i)
	}
	return m
}

// Overlap returns the largest s such that the length-s suffix of x
// equals the length-s prefix of y — the quantity l of equation (2),
// equal to r_{k,1}(X,Y). Linear time: one Morris–Pratt scan of x with
// pattern y. This is the engine of Algorithm 1.
func Overlap(x, y []byte) int {
	// The overlap may not exceed either length; the scan caps at
	// len(y), and s ≤ len(x) holds because at most len(x) text
	// characters were consumed. Allocation-free via the pool.
	sc := GetScratch()
	s := sc.Overlap(x, y)
	PutScratch(sc)
	return s
}

// NaiveL computes l_{i+1,j+1}(X,Y) directly from definition (8) in
// O(k) per query; reference oracle for tests.
func NaiveL(x, y []byte, i, j int) int {
	maxS := j + 1
	if m := len(x) - i; m < maxS {
		maxS = m
	}
	for s := maxS; s >= 1; s-- {
		if eq(x[i:i+s], y[j-s+1:j+1]) {
			return s
		}
	}
	return 0
}

// NaiveR computes r_{i+1,j+1}(X,Y) directly from definition (9);
// reference oracle for tests.
func NaiveR(x, y []byte, i, j int) int {
	maxS := i + 1
	if m := len(y) - j; m < maxS {
		maxS = m
	}
	for s := maxS; s >= 1; s-- {
		if eq(x[i-s+1:i+1], y[j:j+s]) {
			return s
		}
	}
	return 0
}

func eq(a, b []byte) bool {
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
