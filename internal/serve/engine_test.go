package serve

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// TestEngineEquivalence pins Engine answers to the core one-shot
// functions across seeded pairs on several DG(d,k), both orientations,
// reusing one Engine throughout so buffer contamination would surface.
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := NewEngine(nil)
	for _, dk := range [][2]int{{2, 3}, {2, 8}, {3, 4}, {4, 3}, {2, 16}} {
		d, k := dk[0], dk[1]
		for p := 0; p < 40; p++ {
			x := word.Random(d, k, rng)
			y := word.Random(d, k, rng)
			for _, mode := range []Mode{Undirected, Directed} {
				a, cached, err := eng.Answer(Query{Kind: KindDistance, Mode: mode, Src: x, Dst: y}, LevelFull)
				if err != nil || cached {
					t.Fatalf("distance(%v,%v,%v): cached=%v err=%v", x, y, mode, cached, err)
				}
				want := oracleDistance(t, mode, x, y)
				if a.Distance != want {
					t.Fatalf("distance(%v,%v,%v) = %d, want %d", x, y, mode, a.Distance, want)
				}

				ra, _, err := eng.Answer(Query{Kind: KindRoute, Mode: mode, Src: x, Dst: y}, LevelFull)
				if err != nil {
					t.Fatalf("route(%v,%v,%v): %v", x, y, mode, err)
				}
				if len(ra.Path) != want {
					t.Fatalf("route(%v,%v,%v) has %d hops, distance %d", x, y, mode, len(ra.Path), want)
				}
				end, err := ra.Path.Apply(x, core.FirstDigit)
				if err != nil || !end.Equal(y) {
					t.Fatalf("route(%v,%v,%v) applies to %v (%v)", x, y, mode, end, err)
				}

				ha, _, err := eng.Answer(Query{Kind: KindNextHop, Mode: mode, Src: x, Dst: y}, LevelFull)
				if err != nil {
					t.Fatalf("nexthop(%v,%v,%v): %v", x, y, mode, err)
				}
				if ha.HasHop != !x.Equal(y) {
					t.Fatalf("nexthop(%v,%v,%v): HasHop = %v", x, y, mode, ha.HasHop)
				}
				if ha.HasHop {
					// The canonical first hop is that of Algorithm 1's
					// or Algorithm 2's path, whatever tier answers.
					var want core.Path
					if mode == Directed {
						want, err = core.RouteDirected(x, y)
					} else {
						want, err = core.RouteUndirected(x, y)
					}
					if err != nil || len(want) == 0 {
						t.Fatalf("oracle route(%v,%v,%v): %v, %v", x, y, mode, want, err)
					}
					if ha.Hop != want[0] {
						t.Fatalf("nexthop(%v,%v,%v) = %v, want %v", x, y, mode, ha.Hop, want[0])
					}
				}
			}
		}
	}
}

// settleTableBuilds blocks until the rank tables of every
// table-eligible graph this package's tests query are built. Engines
// start those builds asynchronously, and testing.AllocsPerRun counts
// every malloc in the process, so a build still running on its own
// goroutine would charge its allocations to the budget being measured.
func settleTableBuilds() {
	kn := core.NewKernels(core.KernelConfig{SyncTableBuild: true})
	for _, dk := range [][2]int{{2, 2}, {2, 3}, {2, 4}, {2, 5}, {2, 8}, {3, 3}, {3, 4}, {4, 3}} {
		kn.TierFor(dk[0], dk[1])
	}
}

func oracleDistance(t *testing.T, mode Mode, x, y word.Word) int {
	t.Helper()
	var want int
	var err error
	if mode == Directed {
		want, err = core.DirectedDistance(x, y)
	} else {
		want, err = core.UndirectedDistanceLinear(x, y)
	}
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEngineDegradeLevels checks the ladder semantics: LevelDistance
// strips route paths but keeps exact distances; LevelBounds answers
// with the layer bounds only; and degraded answers are never cached.
func TestEngineDegradeLevels(t *testing.T) {
	x := word.MustParse(2, "01101")
	y := word.MustParse(2, "11010")
	cache := NewCache(16, nil)
	eng := NewEngine(cache)

	a, cached, err := eng.Answer(Query{Kind: KindRoute, Src: x, Dst: y}, LevelDistance)
	if err != nil || cached {
		t.Fatalf("degraded route: cached=%v err=%v", cached, err)
	}
	want, _ := core.UndirectedDistanceLinear(x, y)
	if a.Level != LevelDistance || a.Path != nil || a.Distance != want {
		t.Fatalf("LevelDistance answer = %+v, want distance %d, no path", a, want)
	}
	if cache.Len() != 0 {
		t.Fatalf("degraded answer was cached (len %d)", cache.Len())
	}

	a, _, err = eng.Answer(Query{Kind: KindDistance, Src: x, Dst: y}, LevelBounds)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level != LevelBounds || a.Lo != 1 || a.Hi != x.Len() {
		t.Fatalf("LevelBounds answer = %+v, want [1,%d]", a, x.Len())
	}
	a, _, _ = eng.Answer(Query{Kind: KindDistance, Src: x, Dst: x}, LevelBounds)
	if a.Lo != 0 || a.Hi != 0 {
		t.Fatalf("LevelBounds self-pair = [%d,%d], want [0,0]", a.Lo, a.Hi)
	}
	if cache.Len() != 0 {
		t.Fatalf("bounds answers were cached (len %d)", cache.Len())
	}
}

// TestEngineCacheHit checks that a second identical query is served
// from cache with the identical full answer, and that cache hits
// short-circuit even when the requested level is degraded (a hit is
// cheaper than a bounds answer and strictly better).
func TestEngineCacheHit(t *testing.T) {
	x := word.MustParse(2, "0110")
	y := word.MustParse(2, "1011")
	eng := NewEngine(NewCache(16, nil))
	q := Query{Kind: KindRoute, Src: x, Dst: y}

	first, cached, err := eng.Answer(q, LevelFull)
	if err != nil || cached {
		t.Fatalf("first: cached=%v err=%v", cached, err)
	}
	second, cached, err := eng.Answer(q, LevelBounds) // degraded request...
	if err != nil || !cached {
		t.Fatalf("second: cached=%v err=%v", cached, err)
	}
	if second.Level != LevelFull || second.Distance != first.Distance || second.Path.String() != first.Path.String() {
		t.Fatalf("cache hit = %+v, want the stored full answer %+v", second, first)
	}
}

// TestEngineBadQuery checks validation wraps ErrBadQuery.
func TestEngineBadQuery(t *testing.T) {
	eng := NewEngine(nil)
	x := word.MustParse(2, "0110")
	z := word.MustParse(3, "0110")
	for _, q := range []Query{
		{Kind: KindDistance},                                          // zero words
		{Kind: KindDistance, Src: x, Dst: z},                          // mixed bases
		{Kind: KindBatch, Src: x, Dst: x},                             // not answerable
		{Kind: KindDistance, Src: x, Dst: word.MustParse(2, "01101")}, // mixed lengths
	} {
		if _, _, err := eng.Answer(q, LevelFull); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Answer(%+v) error = %v, want ErrBadQuery", q, err)
		}
	}
}

// TestEngineAllocBudgets pins the serving hot path to the PR 4 kernel
// budgets: 0 allocs/op for a cache hit (any kind) and for distance /
// next-hop misses; 1 alloc/op — the returned path — for a route miss.
func TestEngineAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(3))
	const d, k = 2, 64
	pairs := make([][2]word.Word, 32)
	for i := range pairs {
		pairs[i] = [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)}
	}

	// Warm a cached engine over every pair and kind.
	cached := NewEngine(NewCache(4*len(pairs), nil))
	kinds := []Kind{KindDistance, KindRoute, KindNextHop}
	for _, p := range pairs {
		for _, kind := range kinds {
			if _, _, err := cached.Answer(Query{Kind: kind, Src: p[0], Dst: p[1]}, LevelFull); err != nil {
				t.Fatal(err)
			}
		}
	}
	uncached := NewEngine(nil)
	// Warm the uncached engine's scratch buffers too.
	for _, kind := range kinds {
		if _, _, err := uncached.Answer(Query{Kind: kind, Src: pairs[0][0], Dst: pairs[0][1]}, LevelFull); err != nil {
			t.Fatal(err)
		}
	}

	budgets := []struct {
		name string
		max  float64
		eng  *Engine
		kind Kind
	}{
		{"hit/distance", 0, cached, KindDistance},
		{"hit/route", 0, cached, KindRoute},
		{"hit/nexthop", 0, cached, KindNextHop},
		{"miss/distance", 0, uncached, KindDistance},
		{"miss/nexthop", 0, uncached, KindNextHop},
		{"miss/route", 1, uncached, KindRoute},
	}
	settleTableBuilds()
	for _, b := range budgets {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			p := pairs[i%len(pairs)]
			i++
			if _, _, err := b.eng.Answer(Query{Kind: b.kind, Src: p[0], Dst: p[1]}, LevelFull); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > b.max {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", b.name, allocs, b.max)
		}
	}
}

// TestEngineBatchFrame pins the batch path to the scalar path: after
// BeginBatch, AnswerBatchTraced must return byte-identical answers —
// and a warm batch of distance/next-hop misses allocates nothing.
func TestEngineBatchFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dk := range [][2]int{{2, 64}, {2, 100}, {2, 8}, {5, 4}} {
		d, k := dk[0], dk[1]
		batch := NewEngine(nil)
		scalar := NewEngine(nil)
		src := word.Random(d, k, rng)
		qs := make([]Query, 0, 24)
		for i := 0; i < 8; i++ {
			dst := word.Random(d, k, rng)
			for _, kind := range []Kind{KindDistance, KindRoute, KindNextHop} {
				qs = append(qs, Query{Kind: kind, Src: src, Dst: dst})
			}
		}
		qs = append(qs, Query{Kind: KindDistance, Mode: Directed, Src: src, Dst: word.Random(d, k, rng)})
		batch.BeginBatch(qs)
		for i, q := range qs {
			got, _, err := batch.AnswerBatchTraced(i, q, LevelFull, nil)
			if err != nil {
				t.Fatalf("DG(%d,%d) batch[%d]: %v", d, k, i, err)
			}
			want, _, err := scalar.Answer(q, LevelFull)
			if err != nil {
				t.Fatalf("DG(%d,%d) scalar[%d]: %v", d, k, i, err)
			}
			if got.Distance != want.Distance || got.Hop != want.Hop || got.HasHop != want.HasHop ||
				len(got.Path) != len(want.Path) {
				t.Fatalf("DG(%d,%d) batch[%d] %+v != scalar %+v", d, k, i, got, want)
			}
			for j := range got.Path {
				if got.Path[j] != want.Path[j] {
					t.Fatalf("DG(%d,%d) batch[%d] path hop %d: %v != %v", d, k, i, j, got.Path[j], want.Path[j])
				}
			}
		}
	}

	// Allocation budget: a warm distance/next-hop batch is 0 allocs
	// end to end (BeginBatch included).
	eng := NewEngine(nil)
	src := word.Random(2, 64, rng)
	qs := make([]Query, 0, 16)
	for i := 0; i < 8; i++ {
		dst := word.Random(2, 64, rng)
		qs = append(qs, Query{Kind: KindDistance, Src: src, Dst: dst},
			Query{Kind: KindNextHop, Src: src, Dst: dst})
	}
	run := func() {
		eng.BeginBatch(qs)
		for i, q := range qs {
			if _, _, err := eng.AnswerBatchTraced(i, q, LevelFull, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm frame and kernel buffers
	settleTableBuilds()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm batch: %.1f allocs/run, want 0", allocs)
	}
}
