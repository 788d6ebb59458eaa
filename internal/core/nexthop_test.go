package core

import (
	"math/rand"
	"testing"

	"repro/internal/word"
)

// tableKernels returns a Kernels whose DG(d,k) queries resolve to the
// rank-table tier — the precomputed per-site forwarding tables.
func tableKernels(t *testing.T, d, k int) *Kernels {
	t.Helper()
	kn := NewKernels(KernelConfig{SyncTableBuild: true})
	if tier := kn.TierFor(d, k); tier != TierTable {
		t.Fatalf("DG(%d,%d) resolved to the %s tier, want table", d, k, tier)
	}
	return kn
}

func TestSelfRouteDirectedExhaustive(t *testing.T) {
	// Destination-based forwarding matches Property 1 distances on
	// every ordered pair, computing each hop or looking it up in the
	// table tier.
	for _, dk := range [][2]int{{2, 4}, {3, 3}} {
		d, k := dk[0], dk[1]
		words := allWords(t, d, k)
		for name, next := range map[string]func(cur, dst word.Word) (Hop, bool, error){
			"computed": NewKernels(KernelConfig{TableBudget: -1}).NextHopDirected,
			"table":    tableKernels(t, d, k).NextHopDirected,
		} {
			for _, x := range words {
				for _, y := range words {
					walk, err := SelfRoute(x, y, next, nil, 4*k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := DirectedDistance(x, y)
					if err != nil {
						t.Fatal(err)
					}
					if len(walk)-1 != want {
						t.Fatalf("%s: self-route %v→%v took %d hops, want %d", name, x, y, len(walk)-1, want)
					}
					if !walk[len(walk)-1].Equal(y) {
						t.Fatalf("%s: self-route ended at %v, want %v", name, walk[len(walk)-1], y)
					}
				}
			}
		}
	}
}

func TestSelfRouteUndirectedExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dk := range [][2]int{{2, 4}, {3, 3}} {
		d, k := dk[0], dk[1]
		chooser := func(int, word.Word, Hop) byte { return byte(rng.Intn(d)) }
		words := allWords(t, d, k)
		for name, next := range map[string]func(cur, dst word.Word) (Hop, bool, error){
			"computed": NewKernels(KernelConfig{TableBudget: -1}).NextHopUndirected,
			"table":    tableKernels(t, d, k).NextHopUndirected,
		} {
			for _, x := range words {
				for _, y := range words {
					walk, err := SelfRoute(x, y, next, chooser, 4*k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := UndirectedDistance(x, y)
					if err != nil {
						t.Fatal(err)
					}
					if len(walk)-1 != want {
						t.Fatalf("%s: self-route %v→%v took %d hops, want %d", name, x, y, len(walk)-1, want)
					}
					if !walk[len(walk)-1].Equal(y) {
						t.Fatalf("%s: self-route ended at %v, want %v", name, walk[len(walk)-1], y)
					}
				}
			}
		}
	}
}

func TestSelfRouteContractsByOneEachHop(t *testing.T) {
	// Per-hop recomputation with ANY wildcard resolution lands at
	// distance exactly D-1: every wildcard digit keeps the remaining
	// route valid.
	rng := rand.New(rand.NewSource(62))
	kn := NewKernels(KernelConfig{TableBudget: -1, DisablePacked: true})
	for iter := 0; iter < 100; iter++ {
		d := 2 + rng.Intn(3)
		k := 2 + rng.Intn(10)
		x, y := word.Random(d, k, rng), word.Random(d, k, rng)
		cur := x
		dist, err := UndirectedDistance(cur, y)
		if err != nil {
			t.Fatal(err)
		}
		for dist > 0 {
			h, more, err := kn.NextHopUndirected(cur, y)
			if err != nil || !more {
				t.Fatal(err, more)
			}
			if h.Wildcard {
				h = Hop{Type: h.Type, Digit: byte(rng.Intn(d))}
			}
			cur, err = Path{h}.Apply(cur, nil)
			if err != nil {
				t.Fatal(err)
			}
			next, err := UndirectedDistance(cur, y)
			if err != nil {
				t.Fatal(err)
			}
			if next != dist-1 {
				t.Fatalf("hop did not contract: %d → %d (cur %v dst %v)", dist, next, cur, y)
			}
			dist = next
		}
		if !cur.Equal(y) {
			t.Fatalf("ended at %v, want %v", cur, y)
		}
	}
}

func TestNextHopValidation(t *testing.T) {
	x := word.MustParse(2, "01")
	kn := NewKernels(KernelConfig{})
	if _, _, err := kn.NextHopDirected(x, word.MustParse(3, "01")); err == nil {
		t.Error("NextHopDirected accepted mixed bases")
	}
	if _, _, err := kn.NextHopUndirected(x, word.MustParse(2, "011")); err == nil {
		t.Error("NextHopUndirected accepted mixed lengths")
	}
	if _, more, err := kn.NextHopDirected(x, x); err != nil || more {
		t.Error("NextHopDirected at destination should report done")
	}
	if _, more, err := kn.NextHopUndirected(x, x); err != nil || more {
		t.Error("NextHopUndirected at destination should report done")
	}
}

func TestSelfRouteGuards(t *testing.T) {
	x := word.MustParse(2, "01")
	y := word.MustParse(2, "10")
	if _, err := SelfRoute(x, y, nil, nil, 10); err == nil {
		t.Error("accepted nil next-hop function")
	}
	// A non-contracting next function must hit the hop guard.
	loop := func(cur, dst word.Word) (Hop, bool, error) {
		return L(cur.Digit(0)), true, nil
	}
	if _, err := SelfRoute(x, y, loop, nil, 8); err == nil {
		t.Error("runaway next-hop function not caught")
	}
}

func TestSelfRouteAtDestination(t *testing.T) {
	x := word.MustParse(2, "0101")
	walk, err := SelfRoute(x, x, NewKernels(KernelConfig{}).NextHopUndirected, nil, 16)
	if err != nil || len(walk) != 1 {
		t.Errorf("walk = %v, %v", walk, err)
	}
}
