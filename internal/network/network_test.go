package network

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/word"
)

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSendDeliversWithOptimalHops(t *testing.T) {
	// E7: delivered hop counts equal the distance function, for both
	// directionalities, over all pairs of DN(2,4) and DN(3,2).
	for _, cfg := range []Config{
		{D: 2, K: 4, Unidirectional: true},
		{D: 2, K: 4},
		{D: 3, K: 2, Unidirectional: true},
		{D: 3, K: 2},
	} {
		n := mustNet(t, cfg)
		var words []word.Word
		_, err := word.ForEach(cfg.D, cfg.K, func(w word.Word) bool {
			words = append(words, w)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range words {
			for _, dst := range words {
				del, err := n.Send(src, dst, "x")
				if err != nil {
					t.Fatal(err)
				}
				if !del.Delivered {
					t.Fatalf("cfg %+v: %v→%v dropped: %s", cfg, src, dst, del.DropReason)
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
					t.Fatalf("cfg %+v: %v→%v took %d hops, want %d", cfg, src, dst, del.Hops, want)
				}
			}
		}
		s := n.Stats()
		if s.Delivered != len(words)*len(words) || s.Dropped != 0 {
			t.Errorf("stats = %+v", s)
		}
	}
}

// TestRouteIsAlgorithm2 pins the bi-directional source route to
// Algorithm 2's path hop for hop on every ordered pair of DN(2,6), so
// the simulator's link loads follow the same canonical path as every
// kernel tier and the serving layer.
func TestRouteIsAlgorithm2(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 6})
	var words []word.Word
	if _, err := word.ForEach(2, 6, func(w word.Word) bool {
		words = append(words, w)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for _, src := range words {
		for _, dst := range words {
			got, err := n.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.RouteUndirected(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				if diffs++; diffs <= 3 {
					t.Errorf("Route(%v,%v) = %v, Algorithm 2 gives %v", src, dst, got, want)
				}
			}
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d pairs route off Algorithm 2's path", diffs, len(words)*len(words))
	}
}

func TestTraceFollowsGraphEdges(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 5, Trace: true, Seed: 3, Policy: PolicyRandom{}})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		src, dst := word.Random(2, 5, rng), word.Random(2, 5, rng)
		del, err := n.Send(src, dst, "t")
		if err != nil {
			t.Fatal(err)
		}
		sites := del.TraceSites()
		if len(sites) != del.Hops+1 {
			t.Fatalf("trace %v for %d hops", sites, del.Hops)
		}
		if !sites[0].Equal(src) || !sites[len(sites)-1].Equal(dst) {
			t.Fatalf("trace endpoints %v", sites)
		}
		for j := 1; j < len(sites); j++ {
			if _, ok := core.HopBetween(sites[j-1], sites[j]); !ok {
				t.Fatalf("trace step %v→%v not a shift", sites[j-1], sites[j])
			}
		}
	}
}

func TestSendValidatesAddresses(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	if _, err := n.Send(word.MustParse(2, "01"), word.MustParse(2, "010"), "x"); err == nil {
		t.Error("accepted wrong-length source")
	}
	if _, err := n.Send(word.MustParse(2, "010"), word.MustParse(3, "010"), "x"); err == nil {
		t.Error("accepted wrong-base destination")
	}
}

func TestFailedSiteDropsWithoutAdaptive(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	src := word.MustParse(2, "000")
	dst := word.MustParse(2, "011")
	// The optimal route 000→001→011 passes through 001; fail it.
	if err := n.FailSite(word.MustParse(2, "001")); err != nil {
		t.Fatal(err)
	}
	del, err := n.Send(src, dst, "x")
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered {
		t.Error("message delivered through failed site")
	}
	if !strings.Contains(del.DropReason, "failed") {
		t.Errorf("drop reason %q", del.DropReason)
	}
	if n.Stats().Dropped != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestFailedSourceDrops(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	src := word.MustParse(2, "000")
	if err := n.FailSite(src); err != nil {
		t.Fatal(err)
	}
	del, err := n.Send(src, word.MustParse(2, "111"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered || del.DropReason != "source failed" {
		t.Errorf("delivery = %+v", del)
	}
}

func TestAdaptiveReroutesAroundFailure(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3, Adaptive: true})
	if err := n.FailSite(word.MustParse(2, "001")); err != nil {
		t.Fatal(err)
	}
	src := word.MustParse(2, "000")
	dst := word.MustParse(2, "011")
	del, err := n.Send(src, dst, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !del.Delivered {
		t.Fatalf("adaptive send dropped: %s", del.DropReason)
	}
	if del.Rerouted == 0 {
		t.Error("no reroute recorded")
	}
	if del.Hops < 2 {
		t.Errorf("suspicious hop count %d", del.Hops)
	}
}

func TestUnidirectionalRejectsTypeRRoutes(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3, Unidirectional: true})
	msg := Message{
		Control: ControlData,
		Source:  word.MustParse(2, "000"),
		Dest:    word.MustParse(2, "100"),
		Route:   core.Path{core.R(1)},
	}
	del, err := n.Inject(msg)
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered || !strings.Contains(del.DropReason, "type-R") {
		t.Errorf("delivery = %+v", del)
	}
}

// TestInjectRejectsMalformedRoute pins that a route Inject cannot
// forward — a concrete digit outside the alphabet, or an invalid hop
// type — is an error before the send is counted, so the registry's
// sent = delivered + dropped still balances.
func TestInjectRejectsMalformedRoute(t *testing.T) {
	reg := obs.NewRegistry()
	n := mustNet(t, Config{D: 2, K: 3, Obs: reg})
	src, dst := word.MustParse(2, "000"), word.MustParse(2, "001")
	for name, route := range map[string]core.Path{
		"digit out of base": {core.L(2)},
		"invalid type":      {core.L(1), {Type: core.HopType(7), Digit: 0}},
	} {
		if _, err := n.Inject(Message{Control: ControlData, Source: src, Dest: dst, Route: route}); err == nil {
			t.Errorf("%s: Inject accepted %v", name, route)
		}
	}
	snap := reg.Snapshot()
	if sent := snap.Counter("dn_messages_sent_total"); sent != 0 {
		t.Errorf("rejected routes counted as sent: %d", sent)
	}
	// A wildcard hop carries no digit, so its digit field is not checked.
	del, err := n.Inject(Message{Control: ControlData, Source: src, Dest: word.MustParse(2, "100"),
		Route: core.Path{core.L(1), core.L(0), {Type: core.TypeL, Wildcard: true, Digit: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if !del.Delivered {
		t.Errorf("wildcard route: delivery = %+v", del)
	}
}

func TestInjectCustomSuboptimalRoute(t *testing.T) {
	// A valid but longer route still delivers, with its own length.
	n := mustNet(t, Config{D: 2, K: 2})
	src := word.MustParse(2, "00")
	dst := word.MustParse(2, "00")
	route := core.Path{core.L(1), core.R(0)} // 00→01→00
	del, err := n.Inject(Message{Control: ControlData, Source: src, Dest: dst, Route: route})
	if err != nil {
		t.Fatal(err)
	}
	if !del.Delivered || del.Hops != 2 {
		t.Errorf("delivery = %+v", del)
	}
}

func TestRouteExhaustedDrop(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 2})
	del, err := n.Inject(Message{
		Control: ControlData,
		Source:  word.MustParse(2, "00"),
		Dest:    word.MustParse(2, "11"),
		Route:   core.Path{core.L(1)}, // stops at 01
	})
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered || !strings.Contains(del.DropReason, "route exhausted") {
		t.Errorf("delivery = %+v", del)
	}
}

func TestTTLBound(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 2, TTL: 2})
	// A 3-hop custom loop exceeds TTL 2.
	route := core.Path{core.L(1), core.L(0), core.L(0)}
	del, err := n.Inject(Message{
		Control: ControlData,
		Source:  word.MustParse(2, "00"),
		Dest:    word.MustParse(2, "00"),
		Route:   route,
	})
	if err != nil {
		t.Fatal(err)
	}
	if del.Delivered || del.DropReason != "ttl exceeded" {
		t.Errorf("delivery = %+v", del)
	}
	if _, err := New(Config{D: 2, K: 4, TTL: 2}); err == nil {
		t.Error("accepted TTL below diameter")
	}
}

func TestLinkLoadAccounting(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 2})
	src := word.MustParse(2, "00")
	dst := word.MustParse(2, "01")
	for i := 0; i < 5; i++ {
		if _, err := n.Send(src, dst, "x"); err != nil {
			t.Fatal(err)
		}
	}
	load, err := n.LinkLoad(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if load != 5 {
		t.Errorf("link load = %d, want 5", load)
	}
	s := n.Stats()
	if s.MaxLinkLoad != 5 || s.MaxSiteLoad != 5 {
		t.Errorf("stats = %+v", s)
	}
	n.ResetStats()
	if n.Stats().MaxLinkLoad != 0 || n.Stats().Delivered != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestPolicyLeastLoadedSpreadsTraffic(t *testing.T) {
	// E7: wildcard hops occur in the middle blocks of Algorithm 2/4
	// routes; resolving them least-loaded must spread traffic (lower
	// Gini) versus always choosing digit 0. (Max link load toward a
	// hotspot is a structural bottleneck — the final hop is concrete —
	// so the whole-network Gini is the discriminating metric.)
	run := func(p Policy) (int, float64) {
		n := mustNet(t, Config{D: 2, K: 6, Policy: p, Seed: 17})
		sum, err := RunWorkload(n, Uniform{D: 2, K: 6}, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Dropped != 0 {
			t.Fatalf("policy %s dropped %d", p.Name(), sum.Dropped)
		}
		return sum.Net.MaxLinkLoad, sum.Net.LoadGini
	}
	firstMax, firstGini := run(PolicyFirst{})
	llMax, llGini := run(PolicyLeastLoaded{})
	if llGini >= firstGini {
		t.Errorf("least-loaded Gini %v not below first-digit %v", llGini, firstGini)
	}
	if llMax > firstMax {
		t.Errorf("least-loaded max link load %d above first-digit %d", llMax, firstMax)
	}
}

func TestPolicyRandomDeterministicBySeed(t *testing.T) {
	run := func() Stats {
		n := mustNet(t, Config{D: 2, K: 5, Policy: PolicyRandom{}, Seed: 23})
		if _, err := RunWorkload(n, Uniform{D: 2, K: 5}, 500); err != nil {
			t.Fatal(err)
		}
		return n.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Uniform{D: 2, K: 4}
	s, d := u.Next(rng)
	if s.Len() != 4 || d.Len() != 4 {
		t.Error("uniform workload bad words")
	}
	target := word.MustParse(2, "1111")
	h := Hotspot{D: 2, K: 4, Target: target, Fraction: 1.0}
	_, d = h.Next(rng)
	if !d.Equal(target) {
		t.Error("hotspot fraction 1 missed target")
	}
	b := BitReversal{D: 2, K: 4}
	s, d = b.Next(rng)
	if !d.Equal(s.Reverse()) {
		t.Error("bit reversal mismatch")
	}
	if u.Name() == "" || h.Name() == "" || b.Name() == "" {
		t.Error("workload names empty")
	}
}

func TestRunWorkloadValidates(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	if _, err := RunWorkload(n, nil, 5); err == nil {
		t.Error("accepted nil workload")
	}
	if _, err := RunWorkload(n, Uniform{D: 2, K: 3}, 0); err == nil {
		t.Error("accepted zero messages")
	}
}

func TestRunWorkloadSummary(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 4, Seed: 5})
	sum, err := RunWorkload(n, Uniform{D: 2, K: 4}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Messages != 400 || sum.Delivered != 400 || sum.Dropped != 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.MeanHops <= 0 || sum.MeanHops > 4 || sum.MaxHops > 4 {
		t.Errorf("hops stats: mean %v max %d", sum.MeanHops, sum.MaxHops)
	}
}

func TestFailValidatesAddress(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	if err := n.FailSite(word.MustParse(2, "01")); err == nil {
		t.Error("accepted short address")
	}
	if err := n.FailSite(word.MustParse(3, "010")); err == nil {
		t.Error("accepted wrong base")
	}
}
