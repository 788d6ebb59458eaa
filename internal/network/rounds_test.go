package network

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// TestLinkSpace checks the rank arithmetic against word shifts and the
// link ids against their definition: v·2d plus the slot of the target
// among v's sorted, distinct shift neighbours, constant words' self
// loops included.
func TestLinkSpace(t *testing.T) {
	for _, dk := range [][2]int{{2, 1}, {2, 2}, {2, 5}, {3, 3}, {4, 2}, {5, 3}} {
		d, k := dk[0], dk[1]
		ls, err := newLinkSpace(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := word.ForEach(d, k, func(x word.Word) bool {
			v := int(x.MustRank())
			var nbrs []int
			for a := 0; a < d; a++ {
				l, r := int(x.ShiftLeft(byte(a)).MustRank()), int(x.ShiftRight(byte(a)).MustRank())
				if got := ls.shift(v, core.TypeL, byte(a)); got != l {
					t.Errorf("DG(%d,%d) %v: L%d = %d, want %d", d, k, x, a, got, l)
				}
				if got := ls.shift(v, core.TypeR, byte(a)); got != r {
					t.Errorf("DG(%d,%d) %v: R%d = %d, want %d", d, k, x, a, got, r)
				}
				nbrs = append(nbrs, l, r)
			}
			slices.Sort(nbrs)
			for slot, u := range slices.Compact(nbrs) {
				if got, want := ls.id(v, u), int32(v*2*d+slot); got != want {
					t.Errorf("DG(%d,%d) %v: id(%d,%d) = %d, want %d", d, k, x, v, u, got, want)
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := newLinkSpace(2, 30); err == nil {
		t.Error("DG(2,30) link ids do not fit int32, but newLinkSpace accepted it")
	}
}

// TestLinkRoundsStepAllocs pins a warm store-and-forward round at zero
// allocations: once the scratch has grown to the batch, stepping it
// through to delivery reuses every buffer.
func TestLinkRoundsStepAllocs(t *testing.T) {
	c, err := NewContention(ContentionConfig{D: 2, K: 6, Policy: PolicyRandom{}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddUniform(500); err != nil {
		t.Fatal(err)
	}
	lr := newLinkRounds(c.ls, 1)
	drain := func() {
		for _, links := range c.walks {
			if err := lr.add(walker{links: links, injected: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for round := 1; len(lr.inflight) > 0; round++ {
			if _, err := lr.step(round); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, drain); allocs != 0 {
		t.Errorf("a warm batch of %d walkers allocated %.1f times, want 0", len(c.walks), allocs)
	}
}
