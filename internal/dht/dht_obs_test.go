package dht

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/word"
)

func TestRingObserver(t *testing.T) {
	const d, k = 2, 6
	rng := rand.New(rand.NewSource(7))
	ids := make([]word.Word, 0, 12)
	for len(ids) < 12 {
		ids = append(ids, word.Random(d, k, rng))
	}
	r, err := NewRing(d, k, ids)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.SetObserver(reg)

	key := word.Random(d, k, rng)
	totalHops, debruijn := 0, 0
	for _, n := range r.Nodes() {
		res, err := r.Lookup(n, key)
		if err != nil {
			t.Fatal(err)
		}
		totalHops += res.Hops
		debruijn += res.DeBruijnHops
	}

	snap := reg.Snapshot()
	want := int64(r.NumNodes())
	if got := snap.Counter("dn_dht_lookups_total"); got != want {
		t.Errorf("lookups = %d, want %d", got, want)
	}
	if got := snap.Histograms["dn_dht_lookup_hops"].Count; got != want {
		t.Errorf("lookup hop observations = %d, want %d", got, want)
	}
	if got := snap.Counter("dn_dht_debruijn_hops_total"); got != int64(debruijn) {
		t.Errorf("de Bruijn hops = %d, want %d", got, debruijn)
	}
	succ := snap.Counter("dn_dht_successor_hops_total")
	if int(succ)+debruijn != totalHops {
		t.Errorf("successor (%d) + de Bruijn (%d) hops != total %d", succ, debruijn, totalHops)
	}

}
