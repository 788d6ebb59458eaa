package network

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/word"
)

func TestDestinationRoutingMatchesDistancesExhaustive(t *testing.T) {
	for _, cfg := range []Config{
		{D: 2, K: 4, Unidirectional: true},
		{D: 2, K: 4},
		{D: 3, K: 2},
	} {
		n := mustNet(t, cfg)
		var words []word.Word
		if _, err := word.ForEach(cfg.D, cfg.K, func(w word.Word) bool {
			words = append(words, w)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, src := range words {
			for _, dst := range words {
				del, err := n.SendDestinationRouted(src, dst, "d")
				if err != nil {
					t.Fatal(err)
				}
				if !del.Delivered {
					t.Fatalf("%v→%v dropped: %s", src, dst, del.DropReason)
				}
				var want int
				if cfg.Unidirectional {
					want, err = core.DirectedDistance(src, dst)
				} else {
					want, err = core.UndirectedDistance(src, dst)
				}
				if err != nil {
					t.Fatal(err)
				}
				if del.Hops != want {
					t.Fatalf("%v→%v: %d hops, want %d", src, dst, del.Hops, want)
				}
			}
		}
	}
}

func TestDestinationRoutingWithPolicies(t *testing.T) {
	// Hop counts are policy-independent (every wildcard resolution
	// stays on a shortest path).
	for _, p := range []Policy{PolicyFirst{}, PolicyRandom{}, PolicyLeastLoaded{}} {
		n := mustNet(t, Config{D: 3, K: 3, Policy: p, Seed: 5})
		var words []word.Word
		if _, err := word.ForEach(3, 3, func(w word.Word) bool {
			words = append(words, w)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, src := range words[:9] {
			for _, dst := range words {
				del, err := n.SendDestinationRouted(src, dst, "d")
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.UndirectedDistance(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if !del.Delivered || del.Hops != want {
					t.Fatalf("policy %s: %v→%v hops %d want %d (%s)", p.Name(), src, dst, del.Hops, want, del.DropReason)
				}
			}
		}
	}
}

func TestDestinationRoutingFailures(t *testing.T) {
	mid := word.MustParse(2, "001")
	src := word.MustParse(2, "000")
	dst := word.MustParse(2, "011")

	drop := mustNet(t, Config{D: 2, K: 3})
	if err := drop.FailSite(mid); err != nil {
		t.Fatal(err)
	}
	del, err := drop.SendDestinationRouted(src, dst, "d")
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered {
		t.Error("delivered through failed site")
	}

	adaptive := mustNet(t, Config{D: 2, K: 3, Adaptive: true, Trace: true})
	if err := adaptive.FailSite(mid); err != nil {
		t.Fatal(err)
	}
	del, err = adaptive.SendDestinationRouted(src, dst, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !del.Delivered || del.Rerouted == 0 {
		t.Fatalf("adaptive destination routing: %+v", del)
	}
	// Trace must avoid the failed site.
	sites := del.TraceSites()
	for _, w := range sites {
		if w.Equal(mid) {
			t.Error("trace crosses failed site")
		}
	}
	if len(sites) != del.Hops+1 {
		t.Errorf("trace %v vs hops %d", sites, del.Hops)
	}

	failedSrc := mustNet(t, Config{D: 2, K: 3})
	if err := failedSrc.FailSite(src); err != nil {
		t.Fatal(err)
	}
	del, err = failedSrc.SendDestinationRouted(src, dst, "d")
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered || del.DropReason != "source failed" {
		t.Errorf("delivery = %+v", del)
	}
}

// TestDestinationRoutingRerouteAccounting pins the accounting of a
// self-routed walk that meets a failed site and continues on an
// adaptive reroute: the whole walk, not just its tail after the
// reroute, is one message. The dn_hops histogram must sum to the
// delivered hops and Stats().TotalHops, and the TTL must bound the
// links crossed over the whole walk.
func TestDestinationRoutingRerouteAccounting(t *testing.T) {
	const d, k = 2, 6
	for _, ttl := range []int{0, k} {
		reg := obs.NewRegistry()
		n := mustNet(t, Config{D: d, K: k, Adaptive: true, TTL: ttl, Seed: 9, Obs: reg})
		rng := rand.New(rand.NewSource(9))
		for failures := 3 + rng.Intn(3); n.FailedSites() < failures; {
			if err := n.FailSite(word.Random(d, k, rng)); err != nil {
				t.Fatal(err)
			}
		}
		limit := n.Config().TTL
		hops, rerouted := 0, 0
		for i := 0; i < 3000; i++ {
			del, err := n.SendDestinationRouted(word.Random(d, k, rng), word.Random(d, k, rng), "")
			if err != nil {
				t.Fatal(err)
			}
			if del.Hops > limit {
				t.Fatalf("TTL %d: %v→%v crossed %d links (rerouted %d)", limit, del.Msg.Source, del.Msg.Dest, del.Hops, del.Rerouted)
			}
			if del.Delivered {
				hops += del.Hops
				rerouted += del.Rerouted
			}
		}
		if rerouted == 0 {
			t.Fatalf("TTL %d: no delivered message was rerouted", limit)
		}
		if got := n.Stats().TotalHops; got != hops {
			t.Errorf("TTL %d: Stats().TotalHops = %d, delivered hops sum to %d", limit, got, hops)
		}
		if got := reg.Snapshot().Histograms["dn_hops"].Sum; got != float64(hops) {
			t.Errorf("TTL %d: dn_hops sums to %v, delivered hops sum to %d", limit, got, hops)
		}
	}
}

func TestDestinationRoutingValidates(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	if _, err := n.SendDestinationRouted(word.MustParse(2, "01"), word.MustParse(2, "010"), "d"); err == nil {
		t.Error("accepted short source")
	}
}

func TestDestinationRoutingStatsConsistent(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 5, Seed: 3})
	total := 0
	for i := 0; i < 300; i++ {
		src := word.Random(2, 5, n.rng)
		dst := word.Random(2, 5, n.rng)
		del, err := n.SendDestinationRouted(src, dst, "d")
		if err != nil {
			t.Fatal(err)
		}
		total += del.Hops
	}
	s := n.Stats()
	if s.Delivered != 300 || s.TotalHops != total {
		t.Errorf("stats %+v, local total %d", s, total)
	}
}
