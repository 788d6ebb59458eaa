// Package word implements d-ary words of fixed length k, the vertex
// labels of the de Bruijn graph DG(d,k).
//
// A word X = (x_1, ..., x_k) with digits x_i in {0, ..., d-1} denotes a
// vertex. The two shift-register moves of the paper are provided:
//
//	X⁻(a) = (x_2, ..., x_k, a)   — ShiftLeft, the type-L neighbor
//	X⁺(a) = (a, x_1, ..., x_k-1) — ShiftRight, the type-R neighbor
//
// The paper indexes digits 1..k; this package is 0-based: Digit(i)
// returns x_{i+1}.
package word

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// MaxBase is the largest supported alphabet size. Digits are rendered
// with the characters 0-9 then a-z, so bases beyond 36 have no textual
// form; the routing algorithms themselves do not care, but keeping a
// printable alphabet makes every vertex name round-trippable.
const MaxBase = 36

const digitChars = "0123456789abcdefghijklmnopqrstuvwxyz"

// Errors returned by constructors and parsers.
var (
	ErrBadBase   = errors.New("word: base must be in [2, 36]")
	ErrEmpty     = errors.New("word: length must be at least 1")
	ErrBadDigit  = errors.New("word: digit out of range for base")
	ErrBaseMixed = errors.New("word: operands have different bases")
	ErrLenMixed  = errors.New("word: operands have different lengths")
)

// Word is a fixed-length word over the alphabet {0, ..., base-1}. The
// zero value is not a valid Word; construct values with New, Parse,
// Unrank, Random or the shift methods. Words are immutable: every
// operation returns a fresh value and never aliases the receiver's
// backing storage with a caller-visible mutation path.
type Word struct {
	base   int
	digits []byte
}

// New builds a Word from explicit digits. The digit slice is copied.
func New(base int, digits []byte) (Word, error) {
	if base < 2 || base > MaxBase {
		return Word{}, fmt.Errorf("%w: got %d", ErrBadBase, base)
	}
	if len(digits) == 0 {
		return Word{}, ErrEmpty
	}
	d := make([]byte, len(digits))
	for i, v := range digits {
		if int(v) >= base {
			return Word{}, fmt.Errorf("%w: digit %d at position %d, base %d", ErrBadDigit, v, i, base)
		}
		d[i] = v
	}
	return Word{base: base, digits: d}, nil
}

// MustNew is New for programmer-controlled literals; it panics on error.
func MustNew(base int, digits []byte) Word {
	w, err := New(base, digits)
	if err != nil {
		panic(err)
	}
	return w
}

// Parse decodes a textual word such as "0110" (base 2) or "a3f" (base
// 16). Characters 0-9 and a-z encode digit values 0-35.
func Parse(base int, s string) (Word, error) {
	if base < 2 || base > MaxBase {
		return Word{}, fmt.Errorf("%w: got %d", ErrBadBase, base)
	}
	if s == "" {
		return Word{}, ErrEmpty
	}
	digits := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		var v int
		switch {
		case c >= '0' && c <= '9':
			v = int(c - '0')
		case c >= 'a' && c <= 'z':
			v = int(c-'a') + 10
		default:
			return Word{}, fmt.Errorf("%w: character %q at position %d", ErrBadDigit, c, i)
		}
		if v >= base {
			return Word{}, fmt.Errorf("%w: digit %d at position %d, base %d", ErrBadDigit, v, i, base)
		}
		digits[i] = byte(v)
	}
	return Word{base: base, digits: digits}, nil
}

// MustParse is Parse for programmer-controlled literals; it panics on
// error.
func MustParse(base int, s string) Word {
	w, err := Parse(base, s)
	if err != nil {
		panic(err)
	}
	return w
}

// Zeros returns the all-zero word of length k, the vertex (0, ..., 0).
func Zeros(base, k int) (Word, error) {
	if k < 1 {
		return Word{}, ErrEmpty
	}
	return New(base, make([]byte, k))
}

// Base returns the alphabet size d.
func (w Word) Base() int { return w.base }

// Len returns the word length k (the diameter of DG(d,k)).
func (w Word) Len() int { return len(w.digits) }

// IsZero reports whether w is the invalid zero value.
func (w Word) IsZero() bool { return w.base == 0 }

// Digit returns x_{i+1}, the digit at 0-based position i.
func (w Word) Digit(i int) byte { return w.digits[i] }

// Digits returns a copy of the digit slice.
func (w Word) Digits() []byte {
	d := make([]byte, len(w.digits))
	copy(d, w.digits)
	return d
}

// AppendDigits appends the word's digits to buf and returns the
// extended slice — the zero-allocation alternative to Digits for hot
// paths: once the caller's buffer has grown to length k, reloading a
// word is a single copy with no fresh slice. The appended bytes are a
// copy; mutating them cannot reach the word's backing storage.
func (w Word) AppendDigits(buf []byte) []byte {
	return append(buf, w.digits...)
}

// String renders the word with the characters 0-9a-z.
func (w Word) String() string {
	var b strings.Builder
	b.Grow(len(w.digits))
	for _, d := range w.digits {
		b.WriteByte(digitChars[d])
	}
	return b.String()
}

// Equal reports whether two words have the same base and digits.
func (w Word) Equal(o Word) bool {
	if w.base != o.base || len(w.digits) != len(o.digits) {
		return false
	}
	for i := range w.digits {
		if w.digits[i] != o.digits[i] {
			return false
		}
	}
	return true
}

// Compare orders words of equal base and length lexicographically,
// returning -1, 0 or +1.
func (w Word) Compare(o Word) int {
	for i := 0; i < len(w.digits) && i < len(o.digits); i++ {
		switch {
		case w.digits[i] < o.digits[i]:
			return -1
		case w.digits[i] > o.digits[i]:
			return 1
		}
	}
	switch {
	case len(w.digits) < len(o.digits):
		return -1
	case len(w.digits) > len(o.digits):
		return 1
	}
	return 0
}

// ShiftLeft returns X⁻(a) = (x_2, ..., x_k, a), the type-L neighbor of
// X reached by a left shift inserting digit a on the right.
// It panics if a is out of range for the base (programmer error; digit
// values originate from the same alphabet in all call sites).
func (w Word) ShiftLeft(a byte) Word {
	w.mustDigit(a)
	d := make([]byte, len(w.digits))
	copy(d, w.digits[1:])
	d[len(d)-1] = a
	return Word{base: w.base, digits: d}
}

// ShiftRight returns X⁺(a) = (a, x_1, ..., x_{k-1}), the type-R
// neighbor of X reached by a right shift inserting digit a on the left.
// It panics if a is out of range for the base.
func (w Word) ShiftRight(a byte) Word {
	w.mustDigit(a)
	d := make([]byte, len(w.digits))
	copy(d[1:], w.digits[:len(w.digits)-1])
	d[0] = a
	return Word{base: w.base, digits: d}
}

func (w Word) mustDigit(a byte) {
	if int(a) >= w.base {
		panic(fmt.Sprintf("word: digit %d out of range for base %d", a, w.base))
	}
}

// Reverse returns the mirror word (x_k, ..., x_1), written X̄ in the
// paper's Algorithm 4.
func (w Word) Reverse() Word {
	d := make([]byte, len(w.digits))
	for i, v := range w.digits {
		d[len(d)-1-i] = v
	}
	return Word{base: w.base, digits: d}
}

// Prefix returns the length-n prefix digits (x_1, ..., x_n) as a fresh
// slice. n must be in [0, k].
func (w Word) Prefix(n int) []byte {
	d := make([]byte, n)
	copy(d, w.digits[:n])
	return d
}

// Suffix returns the length-n suffix digits (x_{k-n+1}, ..., x_k) as a
// fresh slice. n must be in [0, k].
func (w Word) Suffix(n int) []byte {
	d := make([]byte, n)
	copy(d, w.digits[len(w.digits)-n:])
	return d
}

// Rank returns the index of the word in the lexicographic enumeration
// of all d-ary words of length k, with x_1 most significant. Ranks fit
// in a uint64 only while d^k does; callers enumerate graphs of at most
// a few million vertices, far below the overflow point, but Rank
// reports an error beyond 2^63 to keep misuse loud.
func (w Word) Rank() (uint64, error) {
	var r uint64
	for _, d := range w.digits {
		nr := r*uint64(w.base) + uint64(d)
		if nr < r || nr > 1<<63 {
			return 0, fmt.Errorf("word: rank overflow for base %d length %d", w.base, len(w.digits))
		}
		r = nr
	}
	return r, nil
}

// MustRank is Rank for graph sizes already validated by the caller.
func (w Word) MustRank() uint64 {
	r, err := w.Rank()
	if err != nil {
		panic(err)
	}
	return r
}

// Unrank is the inverse of Rank: it returns the r-th word of length k
// over base d in lexicographic order.
func Unrank(base, k int, r uint64) (Word, error) {
	if base < 2 || base > MaxBase {
		return Word{}, fmt.Errorf("%w: got %d", ErrBadBase, base)
	}
	if k < 1 {
		return Word{}, ErrEmpty
	}
	digits := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		digits[i] = byte(r % uint64(base))
		r /= uint64(base)
	}
	if r != 0 {
		return Word{}, fmt.Errorf("word: rank out of range for base %d length %d", base, k)
	}
	return Word{base: base, digits: digits}, nil
}

// Count returns d^k, the number of vertices of DG(d,k), or an error if
// it does not fit in an int.
func Count(base, k int) (int, error) {
	if base < 2 || base > MaxBase {
		return 0, fmt.Errorf("%w: got %d", ErrBadBase, base)
	}
	if k < 1 {
		return 0, ErrEmpty
	}
	n := 1
	for i := 0; i < k; i++ {
		if n > (1<<62)/base {
			return 0, fmt.Errorf("word: %d^%d overflows", base, k)
		}
		n *= base
	}
	return n, nil
}

// Random returns a uniformly random word of length k over base d drawn
// from rng. Deterministic given the rng seed.
func Random(base, k int, rng *rand.Rand) Word {
	digits := make([]byte, k)
	for i := range digits {
		digits[i] = byte(rng.Intn(base))
	}
	return Word{base: base, digits: digits}
}

// ForEach enumerates every word of length k over base d in
// lexicographic order, invoking fn for each; enumeration stops early if
// fn returns false. It reports whether the enumeration ran to
// completion. Each word fn receives is its own copy and may be kept.
func ForEach(base, k int, fn func(Word) bool) (bool, error) {
	return ForEachInPlace(base, k, func(w Word) bool {
		return fn(Word{base: w.base, digits: append([]byte(nil), w.digits...)})
	})
}

// ForEachInPlace is ForEach without the per-word copy: every call of
// fn sees the same digit buffer, advanced in place once fn returns, so
// fn must not keep the word past the call. The i-th word fn receives
// has rank i.
func ForEachInPlace(base, k int, fn func(Word) bool) (bool, error) {
	n, err := Count(base, k)
	if err != nil {
		return false, err
	}
	w := Word{base: base, digits: make([]byte, k)}
	for i := 0; i < n; i++ {
		if !fn(w) {
			return false, nil
		}
		// Increment digits as a base-d counter.
		for j := k - 1; j >= 0; j-- {
			w.digits[j]++
			if int(w.digits[j]) < base {
				break
			}
			w.digits[j] = 0
		}
	}
	return true, nil
}

// Append returns the word (x_1, ..., x_k, extra...) of a longer
// length; used by sequence and embedding helpers to splice words.
func (w Word) Append(extra ...byte) (Word, error) {
	d := make([]byte, 0, len(w.digits)+len(extra))
	d = append(d, w.digits...)
	d = append(d, extra...)
	return New(w.base, d)
}

// OverlapSuffixPrefix returns the largest s in [0, k] such that the
// length-s suffix of x equals the length-s prefix of y — the quantity l
// of the paper's equation (2), computed naively in O(k²). The match
// package provides the linear-time version; this one is the reference
// oracle used in tests.
func OverlapSuffixPrefix(x, y Word) (int, error) {
	if x.base != y.base {
		return 0, ErrBaseMixed
	}
	if len(x.digits) != len(y.digits) {
		return 0, ErrLenMixed
	}
	k := len(x.digits)
	for s := k; s >= 1; s-- {
		match := true
		for t := 0; t < s; t++ {
			if x.digits[k-s+t] != y.digits[t] {
				match = false
				break
			}
		}
		if match {
			return s, nil
		}
	}
	return 0, nil
}
