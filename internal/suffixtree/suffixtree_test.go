package suffixtree

import (
	"math/rand"
	"testing"
)

// mark appends a unique endmarker (0xFF) to s.
func mark(s string) []byte {
	return append([]byte(s), 0xFF)
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("Build accepted empty string")
	}
}

func TestBuildRejectsNonUniqueEndmarker(t *testing.T) {
	if _, err := Build([]byte("aba")); err == nil {
		t.Error("Build accepted repeated final symbol")
	}
	if _, err := BuildNaive([]byte("aba")); err == nil {
		t.Error("BuildNaive accepted repeated final symbol")
	}
}

func TestLeafPerPosition(t *testing.T) {
	for _, s := range []string{"a", "aaaa", "abab", "banana", "mississippi"} {
		tr, err := Build(mark(s))
		if err != nil {
			t.Fatal(err)
		}
		n := len(s) + 1
		if got := tr.NumLeaves(); got != n {
			t.Errorf("%q: %d leaves, want %d", s, got, n)
		}
		// Every position has exactly one leaf.
		seen := make(map[int]bool)
		tr.Walk(func(nd *Node) {
			if nd.IsLeaf() {
				if seen[nd.LeafPos] {
					t.Errorf("%q: duplicate leaf for position %d", s, nd.LeafPos)
				}
				seen[nd.LeafPos] = true
			}
		})
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Errorf("%q: no leaf for position %d", s, i)
			}
		}
	}
}

func TestCompactness(t *testing.T) {
	// Compact prefix tree has O(n) vertices (≤ 2n) and no unary
	// internal vertices except possibly the root.
	for _, s := range []string{"aaaa", "abcabc", "banana", "aabaabaab"} {
		tr, err := Build(mark(s))
		if err != nil {
			t.Fatal(err)
		}
		n := len(s) + 1
		if got := tr.NumNodes(); got > 2*n {
			t.Errorf("%q: %d nodes exceeds 2n=%d", s, got, 2*n)
		}
		tr.Walk(func(nd *Node) {
			if !nd.IsLeaf() && nd != tr.Root() && len(nd.Children) < 2 {
				t.Errorf("%q: internal non-root vertex with %d children (chain not condensed)", s, len(nd.Children))
			}
		})
	}
}

func TestUkkonenMatchesNaive(t *testing.T) {
	fixed := []string{
		"a", "ab", "aa", "aba", "abab", "aabb", "banana", "mississippi",
		"aaaaaaaa", "abababab", "abcabcabc", "aabaabaa",
	}
	for _, s := range fixed {
		fast, err := Build(mark(s))
		if err != nil {
			t.Fatal(err)
		}
		slow, err := BuildNaive(mark(s))
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(slow) {
			t.Errorf("%q: Ukkonen and naive trees differ\nfast:\n%s\nslow:\n%s", s, fast.Dump(), slow.Dump())
		}
	}
}

func TestUkkonenMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(24)
		base := 2 + rng.Intn(3)
		s := make([]byte, n, n+1)
		for i := range s {
			s[i] = byte(rng.Intn(base))
		}
		s = append(s, 0xFF)
		fast, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := BuildNaive(s)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("random %v: trees differ\nfast:\n%s\nslow:\n%s", s, fast.Dump(), slow.Dump())
		}
	}
}

func TestUkkonenMatchesNaiveTwoEndmarkers(t *testing.T) {
	// Algorithm 4 uses S = X ⊥ Y ⊤ with two distinct endmarkers in the
	// middle and at the end; exercise exactly that shape.
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 300; iter++ {
		k := 1 + rng.Intn(12)
		s := make([]byte, 0, 2*k+2)
		for i := 0; i < k; i++ {
			s = append(s, byte(rng.Intn(2)))
		}
		s = append(s, 0xFE)
		for i := 0; i < k; i++ {
			s = append(s, byte(rng.Intn(2)))
		}
		s = append(s, 0xFF)
		fast, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := BuildNaive(s)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("S=%v: trees differ\nfast:\n%s\nslow:\n%s", s, fast.Dump(), slow.Dump())
		}
	}
}

func TestContains(t *testing.T) {
	tr, err := Build(mark("banana"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"", "b", "banana", "ana", "nan", "a"} {
		if !tr.Contains([]byte(sub)) {
			t.Errorf("Contains(%q) = false", sub)
		}
	}
	for _, sub := range []string{"x", "bananas", "ab", "nab"} {
		if tr.Contains([]byte(sub)) {
			t.Errorf("Contains(%q) = true", sub)
		}
	}
}

func TestDepthsAreLabelPathLengths(t *testing.T) {
	tr, err := Build(mark("abcabcab"))
	if err != nil {
		t.Fatal(err)
	}
	var check func(n *Node, depth int)
	check = func(n *Node, depth int) {
		if n.Depth != depth {
			t.Errorf("node depth %d, want %d", n.Depth, depth)
		}
		for _, c := range n.Children {
			check(c, depth+(c.End-c.Start))
		}
	}
	check(tr.Root(), 0)
}

func TestWalkIsPostOrderDeterministic(t *testing.T) {
	tr, err := Build(mark("abab"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b []int
	tr.Walk(func(n *Node) { a = append(a, n.Depth) })
	tr.Walk(func(n *Node) { b = append(b, n.Depth) })
	if len(a) != len(b) {
		t.Fatal("Walk visited different node counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Walk order not deterministic")
		}
	}
	// Root (depth 0) must come last in post-order.
	if a[len(a)-1] != 0 {
		t.Error("Walk did not finish at the root")
	}
}

func TestLCPViaTreeMatchesDirect(t *testing.T) {
	// The depth of the meet of two leaves is the LCP of the suffixes —
	// the property Proposition 5 relies on.
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(20)
		s := make([]byte, n, n+1)
		for i := range s {
			s[i] = byte(rng.Intn(2))
		}
		s = append(s, 0xFF)
		tr, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		meets := leafMeetDepths(tr)
		for i := 0; i < len(s); i++ {
			for j := i + 1; j < len(s); j++ {
				want := directLCP(s, i, j)
				if got := meets[i][j]; got != want {
					t.Fatalf("meet depth of %d,%d in %v = %d, want %d", i, j, s, got, want)
				}
			}
		}
	}
}

// leafMeetDepths computes, for every pair of leaf positions, the
// string depth of their lowest common ancestor by bottom-up merging.
func leafMeetDepths(tr *Tree) map[int]map[int]int {
	out := make(map[int]map[int]int)
	set := func(i, j, d int) {
		if i > j {
			i, j = j, i
		}
		if out[i] == nil {
			out[i] = make(map[int]int)
		}
		out[i][j] = d
	}
	var visit func(n *Node) []int
	visit = func(n *Node) []int {
		if n.IsLeaf() {
			return []int{n.LeafPos}
		}
		var all []int
		for _, c := range sortedChildren(n) {
			leaves := visit(c)
			for _, a := range all {
				for _, b := range leaves {
					set(a, b, n.Depth)
				}
			}
			all = append(all, leaves...)
		}
		return all
	}
	visit(tr.Root())
	return out
}

func directLCP(s []byte, i, j int) int {
	n := 0
	for i+n < len(s) && j+n < len(s) && s[i+n] == s[j+n] {
		n++
	}
	return n
}
