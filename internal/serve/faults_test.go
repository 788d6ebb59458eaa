package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/word"
)

// hopEdge applies one hop and returns the next vertex.
func hopEdge(t *testing.T, cur word.Word, h core.Hop) word.Word {
	t.Helper()
	next, err := core.Path{h}.Apply(cur, core.FirstDigit)
	if err != nil {
		t.Fatalf("apply hop %v at %v: %v", h, cur, err)
	}
	return next
}

func TestFaultSetBasics(t *testing.T) {
	f := NewFaultSet()
	u := mustWord(t, 2, "0110")
	v := mustWord(t, 2, "1101")
	if f.Len() != 0 {
		t.Fatalf("empty set Len = %d", f.Len())
	}
	if err := f.FailLink(u, v); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 { // both directed arcs
		t.Fatalf("one failed link → %d arcs, want 2", f.Len())
	}
	if !f.failed(2, 4, 6, 13) || !f.failed(2, 4, 13, 6) {
		t.Fatal("failed link not visible in both directions")
	}
	if f.failed(2, 4, 6, 12) || f.failed(3, 4, 6, 13) {
		t.Fatal("unrelated arc / network reported failed")
	}
	if err := f.RepairLink(v, u); err != nil { // order-insensitive
		t.Fatal(err)
	}
	if f.Len() != 0 || f.failed(2, 4, 6, 13) {
		t.Fatal("repair did not clear the link")
	}

	// Mismatched networks are rejected with ErrBadQuery.
	w3 := mustWord(t, 3, "0110")
	if err := f.FailLink(u, w3); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("cross-network FailLink error = %v, want ErrBadQuery", err)
	}
	if err := f.FailLink(u, word.Word{}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("zero-word FailLink error = %v, want ErrBadQuery", err)
	}
}

// TestEngineDetourAnswer pins the LevelDetour rung: exact distance, a
// path that reaches dst while avoiding every failed link, the "detour"
// label, and no cache traffic in either direction.
func TestEngineDetourAnswer(t *testing.T) {
	src := mustWord(t, 2, "0110")
	dst := mustWord(t, 2, "1001")
	cache := NewCache(16, nil)
	eng := NewEngine(cache)

	// Find the optimal route's first link and fail it. The clean
	// answer stays resident in the cache on purpose: the detour rung
	// must not serve that stale path back.
	full, _, err := eng.Answer(Query{Kind: KindRoute, Src: src, Dst: dst}, LevelFull)
	if err != nil || len(full.Path) == 0 {
		t.Fatalf("clean route: %+v, %v", full, err)
	}
	if cache.Len() != 1 {
		t.Fatal("clean full answer not cached")
	}
	next := hopEdge(t, src, full.Path[0])
	faults := NewFaultSet()
	if err := faults.FailLink(src, next); err != nil {
		t.Fatal(err)
	}
	eng.SetFaults(faults)

	a, cached, err := eng.Answer(Query{Kind: KindRoute, Src: src, Dst: dst}, LevelDetour)
	if err != nil || cached {
		t.Fatalf("detour route: cached=%v err=%v", cached, err)
	}
	if a.Level != LevelDetour || a.Level.DegradeString() != "detour" {
		t.Fatalf("detour answer level = %v (%q)", a.Level, a.Level.DegradeString())
	}
	if a.Distance != full.Distance {
		t.Fatalf("detour distance = %d, want exact %d", a.Distance, full.Distance)
	}
	if len(a.Path) < full.Distance {
		t.Fatalf("detour path %d hops, shorter than distance %d", len(a.Path), full.Distance)
	}
	// Replay hop by hop: every crossed link must be live, and the walk
	// must end at dst.
	cur := src
	for _, h := range a.Path {
		nxt := hopEdge(t, cur, h)
		if faults.failed(2, 4, graph.DeBruijnVertex(cur), graph.DeBruijnVertex(nxt)) {
			t.Fatalf("detour crosses failed link %v–%v", cur, nxt)
		}
		cur = nxt
	}
	if !cur.Equal(dst) {
		t.Fatalf("detour ends at %v, want %v", cur, dst)
	}
	if cache.Len() != 1 {
		t.Fatalf("detour answer changed the cache (len %d)", cache.Len())
	}

	// Directed routes have no arborescence machinery; LevelDetour
	// answers them at full fidelity.
	a, _, err = eng.Answer(Query{Kind: KindRoute, Mode: Directed, Src: src, Dst: dst}, LevelDetour)
	if err != nil || a.Level != LevelFull || a.Path == nil {
		t.Fatalf("directed route at LevelDetour = %+v, %v", a, err)
	}
	// Distance queries likewise stay exact and full.
	a, _, err = eng.Answer(Query{Kind: KindDistance, Src: src, Dst: dst}, LevelDetour)
	if err != nil || a.Level != LevelFull || a.Distance != full.Distance {
		t.Fatalf("distance at LevelDetour = %+v, %v", a, err)
	}
}

// TestEngineDetourFallsBack checks both fall-through edges of the
// rung: a network too large to fault-route, and a failure set that
// exceeds the arc-disjointness tolerance at the source.
func TestEngineDetourFallsBack(t *testing.T) {
	// DG(2,17) has 131072 vertices, above maxFaultRouteVertices.
	big := mustWordVertex(t, 2, 17, 5)
	bigDst := mustWordVertex(t, 2, 17, 99)
	eng := NewEngine(nil)
	a, _, err := eng.Answer(Query{Kind: KindRoute, Src: big, Dst: bigDst}, LevelDetour)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level != LevelDistance || a.Path != nil {
		t.Fatalf("oversize detour = %+v, want LevelDistance without path", a)
	}

	// Fail every link out of (and into) src: no walk can leave, so the
	// rung degrades to distance-only rather than serve a dead path.
	src := mustWord(t, 2, "0110")
	dst := mustWord(t, 2, "1001")
	fr, err := core.NewFaultRouter(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults := NewFaultSet()
	sv := graph.DeBruijnVertex(src)
	for _, nb := range fr.Graph().OutNeighbors(sv) {
		nw := mustWordVertex(t, 2, 4, int(nb))
		if err := faults.FailLink(src, nw); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetFaults(faults)
	a, _, err = eng.Answer(Query{Kind: KindRoute, Src: src, Dst: dst}, LevelDetour)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level != LevelDistance || a.Path != nil {
		t.Fatalf("isolated-src detour = %+v, want LevelDistance without path", a)
	}
}

// TestDetourStateShared: Engines answering detours over many DG(d,k)
// keep no fault routing state of their own. Once one engine has built
// each graph's router and the asked root's family, more engines add
// no build, and the process-wide fault-routing store stays under its
// cap.
func TestDetourStateShared(t *testing.T) {
	var graphs [][2]int
	for k := 2; k <= 9; k++ {
		graphs = append(graphs, [2]int{2, k})
	}
	for _, dk := range [][2]int{{3, 3}, {3, 5}, {4, 3}, {4, 5}, {5, 3}, {6, 2}} {
		graphs = append(graphs, dk)
	}
	detours := func() {
		eng := NewEngine(nil)
		for _, dk := range graphs {
			d, k := dk[0], dk[1]
			src, dst := make([]byte, k), make([]byte, k)
			for i := range dst {
				dst[i] = byte(d - 1)
			}
			q := Query{Kind: KindRoute, Src: word.MustNew(d, src), Dst: word.MustNew(d, dst)}
			a, _, err := eng.Answer(q, LevelDetour)
			if err != nil || a.Level != LevelDetour || len(a.Path) < a.Distance {
				t.Fatalf("DG(%d,%d) detour = %+v, %v", d, k, a, err)
			}
		}
	}
	detours()
	_, _, warm := core.FaultRoutingUsage()
	for i := 0; i < 3; i++ {
		detours()
	}
	bytes, capacity, builds := core.FaultRoutingUsage()
	if builds != warm {
		t.Fatalf("later engines ran %d more fault-routing builds, want 0", builds-warm)
	}
	if bytes > capacity {
		t.Fatalf("fault-routing store at %d bytes, cap %d", bytes, capacity)
	}
}

// TestServerFaultsForceDetour checks the server-side wiring: a
// non-empty Config.Faults raises quiet-queue route answers to the
// detour rung, labels them on the wire, and keeps them out of the
// cache; repairing the link restores full-fidelity service.
func TestServerFaultsForceDetour(t *testing.T) {
	src := mustWord(t, 2, "011010")
	dst := mustWord(t, 2, "110100")

	// Identify the clean optimal first link with a throwaway engine.
	full, _, err := NewEngine(nil).Answer(Query{Kind: KindRoute, Src: src, Dst: dst}, LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	next := hopEdge(t, src, full.Path[0])

	faults := NewFaultSet()
	if err := faults.FailLink(src, next); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Shards: 1, CacheSize: 64, Faults: faults, Registry: reg})
	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	resp, err := c.Do(ctx, RouteRequest(src, dst, Undirected))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("route under faults: %+v, %v", resp, err)
	}
	if resp.Degrade != "detour" {
		t.Fatalf("Degrade = %q, want \"detour\"", resp.Degrade)
	}
	if resp.Distance != full.Distance {
		t.Fatalf("detour distance = %d, want %d", resp.Distance, full.Distance)
	}
	if len(resp.Path) < full.Distance {
		t.Fatalf("detour path %v shorter than distance %d", resp.Path, full.Distance)
	}
	cur := src
	for _, hs := range resp.Path {
		h, err := ParseHop(hs)
		if err != nil {
			t.Fatalf("detour hop %q: %v", hs, err)
		}
		nxt := hopEdge(t, cur, h)
		if faults.failed(2, 6, graph.DeBruijnVertex(cur), graph.DeBruijnVertex(nxt)) {
			t.Fatalf("wire detour crosses failed link %v–%v", cur, nxt)
		}
		cur = nxt
	}
	if !cur.Equal(dst) {
		t.Fatalf("wire detour ends at %v, want %v", cur, dst)
	}

	// A second identical query must not be a cache hit — detour
	// answers are never cached.
	resp, err = c.Do(ctx, RouteRequest(src, dst, Undirected))
	if err != nil || resp.Cached || resp.Degrade != "detour" {
		t.Fatalf("repeat detour: %+v, %v", resp, err)
	}

	// The degraded counter is labelled mode=detour.
	snap := reg.Snapshot()
	key := obs.Label(metricDegraded, "mode", "detour")
	if snap.Counters[key] != 2 {
		t.Fatalf("%s = %d, want 2", key, snap.Counters[key])
	}
	counts := s.Counts()
	if !counts.Conserved() || counts.Degraded != 2 {
		t.Fatalf("counts after detours: %+v", counts)
	}

	// Repair: back to full fidelity, cacheable again.
	if err := faults.RepairLink(src, next); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Do(ctx, RouteRequest(src, dst, Undirected))
	if err != nil || resp.Degrade != "" || len(resp.Path) != full.Distance {
		t.Fatalf("post-repair route: %+v, %v", resp, err)
	}
	resp, err = c.Do(ctx, RouteRequest(src, dst, Undirected))
	if err != nil || !resp.Cached {
		t.Fatalf("post-repair repeat not cached: %+v, %v", resp, err)
	}
}

// mustWordVertex converts a vertex rank back to its word.
func mustWordVertex(t *testing.T, d, k, v int) word.Word {
	t.Helper()
	w, err := word.Unrank(d, k, uint64(v))
	if err != nil {
		t.Fatalf("Unrank(%d,%d,%d): %v", d, k, v, err)
	}
	return w
}
