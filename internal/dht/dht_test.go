package dht

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

func randomRing(t *testing.T, d, k, n int, seed int64) *Ring {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]word.Word, n)
	for i := range ids {
		ids[i] = word.Random(d, k, rng)
	}
	r, err := NewRing(d, k, ids)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRingValidates(t *testing.T) {
	if _, err := NewRing(2, 3, nil); err == nil {
		t.Error("accepted empty ring")
	}
	if _, err := NewRing(2, 3, []word.Word{word.MustParse(2, "01")}); err == nil {
		t.Error("accepted short identifier")
	}
	if _, err := NewRing(2, 80, []word.Word{}); err == nil {
		t.Error("accepted overflowing space")
	}
}

func TestRingDeduplicatesAndSorts(t *testing.T) {
	ids := []word.Word{
		word.MustParse(2, "110"),
		word.MustParse(2, "001"),
		word.MustParse(2, "110"),
	}
	r, err := NewRing(2, 3, ids)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 2 {
		t.Fatalf("nodes = %d", r.NumNodes())
	}
	nodes := r.Nodes()
	if nodes[0].ID().String() != "001" || nodes[1].ID().String() != "110" {
		t.Errorf("order: %v, %v", nodes[0].ID(), nodes[1].ID())
	}
	if nodes[0].Successor() != nodes[1] || nodes[1].Successor() != nodes[0] {
		t.Error("successor ring broken")
	}
}

func TestFingerIsPredecessorOfImage(t *testing.T) {
	r := randomRing(t, 2, 6, 12, 1)
	for _, n := range r.Nodes() {
		img := n.ID().ShiftLeft(0).MustRank()
		f := n.Finger()
		if f.rank == img {
			continue // finger sits exactly on the image
		}
		// f must be the last node with rank ≤ img (cyclically).
		for _, m := range r.Nodes() {
			if m == f {
				continue
			}
			// No node strictly between f and img.
			if inHalfOpen(f.rank, img, m.rank) && m.rank != img {
				t.Fatalf("node %v lies between finger %v and image %d", m.ID(), f.ID(), img)
			}
		}
	}
}

func TestOwnerConvention(t *testing.T) {
	r, err := NewRing(2, 3, []word.Word{
		word.MustParse(2, "010"), // 2
		word.MustParse(2, "101"), // 5
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  string
		want string
	}{
		{"000", "010"}, {"010", "010"}, {"011", "101"},
		{"101", "101"}, {"110", "010"}, {"111", "010"},
	}
	for _, c := range cases {
		owner, err := r.Owner(word.MustParse(2, c.key))
		if err != nil {
			t.Fatal(err)
		}
		if owner.ID().String() != c.want {
			t.Errorf("Owner(%s) = %v, want %s", c.key, owner.ID(), c.want)
		}
	}
	if _, err := r.Owner(word.MustParse(2, "01")); err == nil {
		t.Error("accepted short key")
	}
}

func TestLookupFindsOwnerExhaustive(t *testing.T) {
	// Every key, from every node, on several random rings, both
	// variants.
	for seed := int64(1); seed <= 4; seed++ {
		r := randomRing(t, 2, 6, 10, seed)
		if _, err := word.ForEach(2, 6, func(key word.Word) bool {
			owner, err := r.Owner(key)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range r.Nodes() {
				for name, fn := range map[string]func(*Node, word.Word) (LookupResult, error){
					"basic":     r.Lookup,
					"optimized": r.LookupOptimized,
				} {
					res, err := fn(n, key)
					if err != nil {
						t.Fatalf("%s lookup(%v from %v): %v", name, key, n.ID(), err)
					}
					if res.Owner != owner {
						t.Fatalf("%s lookup(%v from %v) = %v, owner %v", name, key, n.ID(), res.Owner.ID(), owner.ID())
					}
					if res.Hops != len(res.Path)-1 {
						t.Fatalf("%s: hops %d vs path %d", name, res.Hops, len(res.Path))
					}
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLookupTernaryRing(t *testing.T) {
	r := randomRing(t, 3, 4, 7, 9)
	if _, err := word.ForEach(3, 4, func(key word.Word) bool {
		owner, err := r.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.LookupOptimized(r.Nodes()[0], key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != owner {
			t.Fatalf("lookup(%v) = %v, owner %v", key, res.Owner.ID(), owner.ID())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeRing(t *testing.T) {
	r, err := NewRing(2, 4, []word.Word{word.MustParse(2, "0110")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Lookup(r.Nodes()[0], word.MustParse(2, "1111"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Owner != r.Nodes()[0] {
		t.Error("single node does not own everything")
	}
}

func TestFullRingLookupMatchesDirectedDistance(t *testing.T) {
	// With every identifier hosting a node, the optimized walk
	// degenerates to pure de Bruijn routing: de Bruijn hops =
	// D(start, key) of Property 1.
	var ids []word.Word
	if _, err := word.ForEach(2, 4, func(w word.Word) bool {
		ids = append(ids, w)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(2, 4, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Nodes() {
		if _, err := word.ForEach(2, 4, func(key word.Word) bool {
			res, err := r.LookupOptimized(n, key)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.DirectedDistance(n.ID(), key)
			if err != nil {
				t.Fatal(err)
			}
			// Successor pointers can replace trailing injections
			// (e.g. when the owner is the immediate successor), so
			// the walk never needs MORE than Property 1's distance:
			// de Bruijn hops ≤ D, and total hops ≤ D + 1.
			if res.DeBruijnHops > want {
				t.Fatalf("full ring: %v→%v used %d de Bruijn hops, Property 1 allows %d",
					n.ID(), key, res.DeBruijnHops, want)
			}
			if res.Hops > want+1 {
				t.Fatalf("full ring: %v→%v took %d hops, distance %d",
					n.ID(), key, res.Hops, want)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptimizedUsesFewerInjections(t *testing.T) {
	// On a sparse ring the optimized variant must use at most the
	// basic variant's k injections, and fewer on average.
	r := randomRing(t, 2, 12, 32, 3)
	rng := rand.New(rand.NewSource(4))
	totalBasic, totalOpt := 0, 0
	for i := 0; i < 200; i++ {
		key := word.Random(2, 12, rng)
		n := r.Nodes()[rng.Intn(r.NumNodes())]
		basic, err := r.Lookup(n, key)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := r.LookupOptimized(n, key)
		if err != nil {
			t.Fatal(err)
		}
		// Per-instance comparisons are invalid (either variant can
		// terminate early through a lucky successor block); the
		// aggregate must favor the optimized start.
		totalBasic += basic.DeBruijnHops
		totalOpt += opt.DeBruijnHops
	}
	if totalOpt >= totalBasic {
		t.Errorf("optimized total %d not below basic %d", totalOpt, totalBasic)
	}
}

func TestNodeAt(t *testing.T) {
	r := randomRing(t, 2, 6, 8, 6)
	for _, n := range r.Nodes() {
		got, ok := r.NodeAt(n.ID())
		if !ok || got != n {
			t.Errorf("NodeAt(%v) = %v, %v", n.ID(), got, ok)
		}
	}
	if _, ok := r.NodeAt(word.MustParse(2, "01")); ok {
		t.Error("NodeAt accepted short id")
	}
}

func TestLookupValidates(t *testing.T) {
	r := randomRing(t, 2, 4, 4, 7)
	if _, err := r.Lookup(nil, word.MustParse(2, "0000")); err == nil {
		t.Error("accepted nil start")
	}
	if _, err := r.Lookup(r.Nodes()[0], word.MustParse(3, "0000")); err == nil {
		t.Error("accepted wrong-base key")
	}
	if _, err := r.LookupOptimized(nil, word.MustParse(2, "0000")); err == nil {
		t.Error("optimized accepted nil start")
	}
}
