package deflect

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/word"
)

// stepUntilEmpty drives the engine until no message is in flight,
// failing the test if that takes more than limit rounds.
func stepUntilEmpty(t *testing.T, e *Engine, limit int) {
	t.Helper()
	for i := 0; e.Inflight() > 0; i++ {
		if i > limit {
			t.Fatalf("network not empty after %d rounds (%d in flight)", limit, e.Inflight())
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroContentionExactDistance is the satellite correctness test:
// with a single message in the network there is never contention, so
// every policy delivers in exactly D(X,Y) hops — Property 1 distances
// on the directed graph, Theorem 2 distances on the undirected one.
// Exhaustive over all ordered pairs of DN(2,4), both kinds, all
// policies.
func TestZeroContentionExactDistance(t *testing.T) {
	const d, k = 2, 4
	for _, uni := range []bool{true, false} {
		for _, pol := range Policies() {
			e, err := New(Config{D: d, K: k, Unidirectional: uni, Policy: pol, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var delivered int
			if _, err := word.ForEach(d, k, func(src word.Word) bool {
				_, err := word.ForEach(d, k, func(dst word.Word) bool {
					var want int
					var derr error
					if uni {
						want, derr = core.DirectedDistance(src, dst)
					} else {
						want, derr = core.UndirectedDistance(src, dst)
					}
					if derr != nil {
						t.Fatal(derr)
					}
					before := e.Stats()
					ok, err := e.Inject(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("empty network refused %v→%v", src, dst)
					}
					stepUntilEmpty(t, e, 2*k+2)
					after := e.Stats()
					if after.Delivered != before.Delivered+1 {
						t.Fatalf("%v→%v (uni=%v): not delivered", src, dst, uni)
					}
					if got := after.HopsMoved - before.HopsMoved; got != int64(want) {
						t.Fatalf("%v→%v (uni=%v, policy=%s): took %d hops, D(X,Y)=%d",
							src, dst, uni, pol.Name(), got, want)
					}
					if after.Deflections != before.Deflections {
						t.Fatalf("%v→%v (uni=%v): deflected with zero contention", src, dst, uni)
					}
					delivered++
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if s := e.Stats(); s.Delivered != delivered || s.GuardDropped != 0 || s.Refused != 0 {
				t.Fatalf("uni=%v policy=%s: stats %+v after %d clean deliveries", uni, pol.Name(), s, delivered)
			}
		}
	}
}

// TestZeroContentionRandomPairs spot-checks larger graphs: DN(2,6) and
// DN(3,4), 60 random pairs each, both kinds.
func TestZeroContentionRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, dk := range []struct{ d, k int }{{2, 6}, {3, 4}} {
		for _, uni := range []bool{true, false} {
			e, err := New(Config{D: dk.d, K: dk.k, Unidirectional: uni, Policy: PolicyLayerAware{}, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				src := word.Random(dk.d, dk.k, rng)
				dst := word.Random(dk.d, dk.k, rng)
				var want int
				if uni {
					want, err = core.DirectedDistance(src, dst)
				} else {
					want, err = core.UndirectedDistance(src, dst)
				}
				if err != nil {
					t.Fatal(err)
				}
				before := e.Stats()
				if _, err := e.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
				stepUntilEmpty(t, e, 2*dk.k+2)
				after := e.Stats()
				if got := after.HopsMoved - before.HopsMoved; got != int64(want) {
					t.Fatalf("DN(%d,%d) uni=%v %v→%v: %d hops, want %d", dk.d, dk.k, uni, src, dst, got, want)
				}
			}
		}
	}
}

// TestNoLivelockSaturatingLoad is the satellite property test: on
// DN(2,6) and DN(3,4) under a saturating offered load (rate 1.0 —
// every site offers a message every round of the window), the
// oldest-first priority rule delivers every injected message; the age
// guard never fires and nothing is left in flight after the drain.
func TestNoLivelockSaturatingLoad(t *testing.T) {
	for _, dk := range []struct{ d, k int }{{2, 6}, {3, 4}} {
		for _, uni := range []bool{true, false} {
			for _, pol := range Policies() {
				res, err := RunLoad(LoadConfig{
					D: dk.d, K: dk.k,
					Unidirectional: uni,
					Policy:         pol,
					Rate:           1.0,
					Rounds:         50,
					Seed:           11,
				})
				if err != nil {
					t.Fatalf("DN(%d,%d) uni=%v policy=%s: %v", dk.d, dk.k, uni, pol.Name(), err)
				}
				if res.GuardDropped != 0 {
					t.Fatalf("DN(%d,%d) uni=%v policy=%s: %d guard trips under oldest-first",
						dk.d, dk.k, uni, pol.Name(), res.GuardDropped)
				}
				if res.Inflight != 0 {
					t.Fatalf("DN(%d,%d) uni=%v policy=%s: %d still in flight after drain",
						dk.d, dk.k, uni, pol.Name(), res.Inflight)
				}
				if res.Delivered != res.Injected {
					t.Fatalf("DN(%d,%d) uni=%v policy=%s: injected %d, delivered %d",
						dk.d, dk.k, uni, pol.Name(), res.Injected, res.Delivered)
				}
				if res.Offered != res.Injected+res.Refused {
					t.Fatalf("offered %d ≠ injected %d + refused %d", res.Offered, res.Injected, res.Refused)
				}
				if res.Injected == 0 || res.Refused == 0 {
					t.Fatalf("saturating load should both inject and refuse (injected=%d refused=%d)",
						res.Injected, res.Refused)
				}
			}
		}
	}
}

// TestSelfAddressedAbsorbedImmediately verifies the zero-hop path.
func TestSelfAddressedAbsorbedImmediately(t *testing.T) {
	e, err := New(Config{D: 2, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := word.MustParse(2, "0110")
	ok, err := e.Inject(w, w)
	if err != nil || !ok {
		t.Fatalf("Inject(w,w) = %v, %v", ok, err)
	}
	s := e.Stats()
	if s.Delivered != 1 || s.Inflight != 0 || s.HopsMoved != 0 || s.MeanLatency != 0 {
		t.Fatalf("self-addressed message not absorbed at zero cost: %+v", s)
	}
}

// TestInjectRefusedAtCapacity verifies bufferless backpressure: a site
// holds at most one message per output link.
func TestInjectRefusedAtCapacity(t *testing.T) {
	e, err := New(Config{D: 2, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := word.MustParse(2, "0110")
	dst := word.MustParse(2, "1001")
	cap, err := e.Capacity(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap; i++ {
		ok, err := e.Inject(src, dst)
		if err != nil || !ok {
			t.Fatalf("inject %d/%d: %v, %v", i+1, cap, ok, err)
		}
	}
	ok, err := e.Inject(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("site accepted %d messages with only %d output links", cap+1, cap)
	}
	if s := e.Stats(); s.Refused != 1 || s.Inflight != cap {
		t.Fatalf("stats after overfill: %+v", s)
	}
	stepUntilEmpty(t, e, e.Config().MaxAge+1)
}

// TestRejectsForeignWords verifies address validation.
func TestRejectsForeignWords(t *testing.T) {
	e, err := New(Config{D: 2, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inject(word.MustParse(2, "011"), word.MustParse(2, "1001")); err == nil {
		t.Fatal("accepted a source of the wrong length")
	}
	if _, err := e.Inject(word.MustParse(2, "0110"), word.MustParse(3, "1001")); err == nil {
		t.Fatal("accepted a destination of the wrong base")
	}
}

// TestConfigValidation covers MaxAge and policy defaulting.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{D: 2, K: 6, MaxAge: 3}); err == nil {
		t.Fatal("accepted MaxAge below the diameter")
	}
	e, err := New(Config{D: 2, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Config(); got.MaxAge != 64*6 || got.Policy == nil {
		t.Fatalf("defaults not resolved: %+v", got)
	}
}

// TestGuardTripsCounted forces the age guard with a tiny MaxAge and a
// policy that refuses to advance, proving livelock is counted rather
// than silent.
type neverAdvance struct{}

func (neverAdvance) Name() string { return "never-advance" }
func (neverAdvance) Choose(_ *Engine, _ int, _ []int32, dist []uint8) (int, error) {
	// Pick the candidate farthest from the destination.
	worst := 0
	for i, d := range dist {
		if d > dist[worst] {
			worst = i
		}
	}
	return worst, nil
}

func TestGuardTripsCounted(t *testing.T) {
	const d, k = 2, 6
	e, err := New(Config{D: d, K: k, Policy: neverAdvance{}, MaxAge: k, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate one round so contention forces deflections, then run out
	// the age guard.
	rng := rand.New(rand.NewSource(8))
	for v := 0; v < e.NumSites(); v++ {
		if _, err := e.Inject(e.Word(v), word.Random(d, k, rng)); err != nil {
			t.Fatal(err)
		}
	}
	stepUntilEmpty(t, e, 4*k)
	s := e.Stats()
	if s.GuardDropped == 0 {
		t.Fatal("expected guard trips under an adversarial policy with MaxAge = k")
	}
	if s.Injected != s.Delivered+s.GuardDropped {
		t.Fatalf("accounting broken: injected %d ≠ delivered %d + guard %d",
			s.Injected, s.Delivered, s.GuardDropped)
	}
}

// TestMetricsMatchStats checks every dn_deflect_* series against the
// engine's own counters after a loaded run.
func TestMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunLoad(LoadConfig{
		D: 2, K: 6,
		Policy: PolicyMinIncrease{},
		Rate:   0.5,
		Rounds: 40,
		Seed:   21,
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		metricInjected:    int64(res.Injected),
		metricRefused:     int64(res.Refused),
		metricDelivered:   int64(res.Delivered),
		metricGuardTrips:  int64(res.GuardDropped),
		metricDeflections: res.Deflections,
		metricHopsMoved:   res.HopsMoved,
		metricRounds:      int64(res.Rounds),
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauge(metricInflight); got != 0 {
		t.Errorf("%s = %v after drain, want 0", metricInflight, got)
	}
	if got, want := snap.Gauge(metricThroughput), res.Throughput; got != want {
		t.Errorf("%s = %v, want %v", metricThroughput, got, want)
	}
	if h, ok := snap.Histograms[metricLatency]; !ok || h.Count != int64(res.Delivered) {
		t.Errorf("%s count = %+v, want %d observations", metricLatency, h, res.Delivered)
	}
	if h, ok := snap.Histograms[metricMsgDeflections]; !ok || h.Count != int64(res.Delivered) {
		t.Errorf("%s count = %+v, want %d observations", metricMsgDeflections, h, res.Delivered)
	}
}

// TestRunLoadDeterministic: identical configs produce identical
// results — the repo-wide seeded-determinism convention.
func TestRunLoadDeterministic(t *testing.T) {
	cfg := LoadConfig{D: 3, K: 4, Policy: PolicyLayerAware{}, Rate: 0.7, Rounds: 30, Seed: 17}
	a, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestRunLoadPinned pins RunLoad's results to golden values: every
// policy at a light and a saturating rate on undirected DG(2,6), plus
// one directed DG(2,5) run. TestRunLoadDeterministic only compares a
// run with itself; this catches a refactor that changes behaviour.
func TestRunLoadPinned(t *testing.T) {
	cases := []struct {
		unidirectional bool
		k              int
		policy         string
		rate           float64
		seed           int64
		want           LoadResult
	}{
		{false, 6, "random", 0.05, 1, LoadResult{Offered: 152, DrainRounds: 4, Stats: Stats{Rounds: 44, Injected: 152, Refused: 0, Delivered: 152, GuardDropped: 0, Inflight: 0, Deflections: 3, HopsMoved: 524, MeanLatency: 3.4473684210526314, P99Latency: 6, MaxLatency: 6, MeanDeflections: 0.019736842105263157, DeflectionRate: 0.0057251908396946565, Throughput: 3.4545454545454546}}},
		{false, 6, "random", 0.05, 7, LoadResult{Offered: 138, DrainRounds: 4, Stats: Stats{Rounds: 44, Injected: 138, Refused: 0, Delivered: 138, GuardDropped: 0, Inflight: 0, Deflections: 8, HopsMoved: 470, MeanLatency: 3.4057971014492754, P99Latency: 6, MaxLatency: 7, MeanDeflections: 0.057971014492753624, DeflectionRate: 0.01702127659574468, Throughput: 3.1363636363636362}}},
		{false, 6, "random", 0.9, 1, LoadResult{Offered: 2317, DrainRounds: 12, Stats: Stats{Rounds: 52, Injected: 1494, Refused: 823, Delivered: 1494, GuardDropped: 0, Inflight: 0, Deflections: 2656, HopsMoved: 9675, MeanLatency: 6.475903614457831, P99Latency: 12, MaxLatency: 14, MeanDeflections: 1.7777777777777777, DeflectionRate: 0.2745219638242894, Throughput: 28.73076923076923}}},
		{false, 6, "random", 0.9, 7, LoadResult{Offered: 2322, DrainRounds: 12, Stats: Stats{Rounds: 52, Injected: 1450, Refused: 872, Delivered: 1450, GuardDropped: 0, Inflight: 0, Deflections: 2714, HopsMoved: 9720, MeanLatency: 6.703448275862069, P99Latency: 13, MaxLatency: 15, MeanDeflections: 1.8717241379310345, DeflectionRate: 0.2792181069958848, Throughput: 27.884615384615383}}},
		{false, 6, "min-increase", 0.05, 1, LoadResult{Offered: 152, DrainRounds: 4, Stats: Stats{Rounds: 44, Injected: 152, Refused: 0, Delivered: 152, GuardDropped: 0, Inflight: 0, Deflections: 5, HopsMoved: 527, MeanLatency: 3.4671052631578947, P99Latency: 6, MaxLatency: 7, MeanDeflections: 0.03289473684210526, DeflectionRate: 0.009487666034155597, Throughput: 3.4545454545454546}}},
		{false, 6, "min-increase", 0.05, 7, LoadResult{Offered: 138, DrainRounds: 4, Stats: Stats{Rounds: 44, Injected: 138, Refused: 0, Delivered: 138, GuardDropped: 0, Inflight: 0, Deflections: 8, HopsMoved: 471, MeanLatency: 3.4130434782608696, P99Latency: 6, MaxLatency: 6, MeanDeflections: 0.057971014492753624, DeflectionRate: 0.016985138004246284, Throughput: 3.1363636363636362}}},
		{false, 6, "min-increase", 0.9, 1, LoadResult{Offered: 2317, DrainRounds: 11, Stats: Stats{Rounds: 51, Injected: 1522, Refused: 795, Delivered: 1522, GuardDropped: 0, Inflight: 0, Deflections: 2686, HopsMoved: 9619, MeanLatency: 6.319973718791064, P99Latency: 12, MaxLatency: 16, MeanDeflections: 1.7647831800262812, DeflectionRate: 0.27923900613369373, Throughput: 29.84313725490196}}},
		{false, 6, "min-increase", 0.9, 7, LoadResult{Offered: 2322, DrainRounds: 10, Stats: Stats{Rounds: 50, Injected: 1487, Refused: 835, Delivered: 1487, GuardDropped: 0, Inflight: 0, Deflections: 2654, HopsMoved: 9495, MeanLatency: 6.385339609952926, P99Latency: 13, MaxLatency: 16, MeanDeflections: 1.784801613987895, DeflectionRate: 0.2795155344918378, Throughput: 29.74}}},
		{false, 6, "layer-aware", 0.05, 1, LoadResult{Offered: 152, DrainRounds: 4, Stats: Stats{Rounds: 44, Injected: 152, Refused: 0, Delivered: 152, GuardDropped: 0, Inflight: 0, Deflections: 3, HopsMoved: 524, MeanLatency: 3.4473684210526314, P99Latency: 6, MaxLatency: 6, MeanDeflections: 0.019736842105263157, DeflectionRate: 0.0057251908396946565, Throughput: 3.4545454545454546}}},
		{false, 6, "layer-aware", 0.05, 7, LoadResult{Offered: 138, DrainRounds: 4, Stats: Stats{Rounds: 44, Injected: 138, Refused: 0, Delivered: 138, GuardDropped: 0, Inflight: 0, Deflections: 8, HopsMoved: 470, MeanLatency: 3.4057971014492754, P99Latency: 6, MaxLatency: 6, MeanDeflections: 0.057971014492753624, DeflectionRate: 0.01702127659574468, Throughput: 3.1363636363636362}}},
		{false, 6, "layer-aware", 0.9, 1, LoadResult{Offered: 2317, DrainRounds: 12, Stats: Stats{Rounds: 52, Injected: 1507, Refused: 810, Delivered: 1507, GuardDropped: 0, Inflight: 0, Deflections: 2689, HopsMoved: 9569, MeanLatency: 6.349701393497014, P99Latency: 12, MaxLatency: 13, MeanDeflections: 1.7843397478433976, DeflectionRate: 0.28101159995819835, Throughput: 28.98076923076923}}},
		{false, 6, "layer-aware", 0.9, 7, LoadResult{Offered: 2322, DrainRounds: 11, Stats: Stats{Rounds: 51, Injected: 1523, Refused: 799, Delivered: 1523, GuardDropped: 0, Inflight: 0, Deflections: 2690, HopsMoved: 9624, MeanLatency: 6.319107025607354, P99Latency: 12, MaxLatency: 14, MeanDeflections: 1.7662508207485226, DeflectionRate: 0.2795095594347465, Throughput: 29.862745098039216}}},
		{true, 5, "min-increase", 0.9, 3, LoadResult{Offered: 1145, DrainRounds: 11, Stats: Stats{Rounds: 51, Injected: 395, Refused: 750, Delivered: 395, GuardDropped: 0, Inflight: 0, Deflections: 647, HopsMoved: 2578, MeanLatency: 6.526582278481013, P99Latency: 15, MaxLatency: 16, MeanDeflections: 1.6379746835443039, DeflectionRate: 0.25096974398758726, Throughput: 7.745098039215686}}},
	}
	for _, c := range cases {
		got, err := RunLoad(LoadConfig{D: 2, K: c.k, Unidirectional: c.unidirectional,
			Policy: PolicyByName(c.policy), Rate: c.rate, Rounds: 40, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("directed=%v k=%d %s rate=%v seed=%d:\n got %+v\nwant %+v",
				c.unidirectional, c.k, c.policy, c.rate, c.seed, got, c.want)
		}
	}
}

// TestPolicyByName covers the CLI resolution path.
func TestPolicyByName(t *testing.T) {
	for _, p := range Policies() {
		got := PolicyByName(p.Name())
		if got == nil || got.Name() != p.Name() {
			t.Fatalf("PolicyByName(%q) = %v", p.Name(), got)
		}
	}
	if PolicyByName("nope") != nil {
		t.Fatal("PolicyByName accepted an unknown name")
	}
}

// TestRunLoadValidation covers the driver's config checks.
func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(LoadConfig{D: 2, K: 4, Rate: 0, Rounds: 10}); err == nil {
		t.Fatal("accepted rate 0")
	}
	if _, err := RunLoad(LoadConfig{D: 2, K: 4, Rate: 1.5, Rounds: 10}); err == nil {
		t.Fatal("accepted rate > 1")
	}
	if _, err := RunLoad(LoadConfig{D: 2, K: 4, Rate: 0.5, Rounds: 0}); err == nil {
		t.Fatal("accepted zero rounds")
	}
}

// TestEngineMemoryBounded runs one off-table engine, undirected
// DG(2,12) past the table budget, to 8 and then to all 4096 distinct
// destinations, one message per site each time, and checks that the
// heap it retains after each drain does not grow with that number. An
// engine that kept a distance column per destination would retain 4096
// bytes for each new one, about 16 MiB.
func TestEngineMemoryBounded(t *testing.T) {
	e, err := New(Config{D: 2, K: 12, Policy: PolicyLayerAware{}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if tier := e.kn.TierFor(2, 12); tier == core.TierTable {
		t.Fatalf("DG(2,12) resolves to the %v tier, want one off the table", tier)
	}
	n := e.NumSites()
	retained := func(dests int) uint64 {
		for v := 0; v < n; v++ {
			// 7v+1 is a permutation of the ranks without fixed points.
			e.inject(v, (7*v+1)%n/(n/dests)*(n/dests))
		}
		stepUntilEmpty(t, e, e.Config().MaxAge+1)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	few := retained(8)
	all := retained(n)
	if s := e.Stats(); s.Delivered+s.GuardDropped != 2*n {
		t.Fatalf("stats %+v after two waves of %d messages", s, n)
	}
	t.Logf("retained heap: %d bytes at 8 destinations, %d at %d", few, all, n)
	if all > few+256<<10 {
		t.Errorf("retained heap grew from %d to %d bytes going from 8 to %d destinations", few, all, n)
	}
	runtime.KeepAlive(e)
}

// TestStepAllocs pins a warm deflection round at zero allocations for
// every policy, on the table tier (DG(2,6) of both kinds, table built)
// and off it (DG(2,9) of both kinds, past the table budget): a round
// reuses the engine's scratch (free links, distances, candidates,
// digit buffers, moves) and the resident sets, which New sizes to the
// sites' output links.
func TestStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		k   int
		uni bool
	}{{6, false}, {9, false}, {6, true}, {9, true}} {
		for _, pol := range Policies() {
			testStepAllocs(t, tc.k, tc.uni, pol)
		}
	}
}

func testStepAllocs(t *testing.T, k int, uni bool, pol Policy) {
	t.Helper()
	e, err := newEngine(Config{D: 2, K: k, Unidirectional: uni, Policy: pol, Seed: 3},
		core.NewKernels(core.KernelConfig{SyncTableBuild: true}))
	if err != nil {
		t.Fatal(err)
	}
	n := e.NumSites()
	dsts := make([]word.Word, n)
	for v := range dsts {
		dsts[v] = e.Word(v)
	}
	// fill offers every site one message per output link.
	fill := func() {
		for v := 0; v < n; v++ {
			for s := 0; s < len(e.Graph().OutNeighbors(v)); s++ {
				if _, err := e.Inject(e.Word(v), dsts[(v+17*s+1)%n]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	step := func() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fill()
	stepUntilEmpty(t, e, 64*k)
	fill()
	// Saturated, the load takes well over the 6 measured rounds
	// to drain.
	if allocs := testing.AllocsPerRun(5, step); allocs != 0 || e.Inflight() == 0 {
		t.Errorf("DG(2,%d) directed=%v %s: a warm round allocated %.1f times (%d still in flight), want 0",
			k, uni, pol.Name(), allocs, e.Inflight())
	}
}
