package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/word"
)

// arcSet is a test-side failure set over directed arcs.
type arcSet map[[2]int]bool

func (s arcSet) failed(u, v int) bool { return s[[2]int{u, v}] }

// sampleArcs draws f distinct directed arcs of fr's graph.
func sampleArcs(fr *FaultRouter, f int, rng *rand.Rand) arcSet {
	g := fr.Graph()
	set := arcSet{}
	for len(set) < f {
		u := rng.Intn(fr.NumVertices())
		nbrs := g.OutNeighbors(u)
		if len(nbrs) == 0 {
			continue
		}
		v := int(nbrs[rng.Intn(len(nbrs))])
		set[[2]int{u, v}] = true
	}
	return set
}

func TestFaultWalkNoFailures(t *testing.T) {
	for _, dk := range [][2]int{{2, 3}, {3, 2}, {2, 5}, {4, 2}, {3, 1}} {
		fr, err := NewFaultRouter(dk[0], dk[1])
		if err != nil {
			t.Fatalf("NewFaultRouter(%v): %v", dk, err)
		}
		n := fr.NumVertices()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				w, err := fr.Walk(src, dst, nil)
				if err != nil {
					t.Fatalf("DG%v walk %d→%d: %v", dk, src, dst, err)
				}
				if !w.Delivered {
					t.Fatalf("DG%v walk %d→%d not delivered without failures: %s", dk, src, dst, w.Reason)
				}
				if w.Switches != 0 {
					t.Fatalf("DG%v walk %d→%d switched trees without failures", dk, src, dst)
				}
				if w.Hops > fr.HopBound() {
					t.Fatalf("DG%v walk %d→%d took %d hops, bound %d", dk, src, dst, w.Hops, fr.HopBound())
				}
			}
		}
	}
}

// The delivery guarantee: any static failure set smaller than Trees
// leaves every pair deliverable within HopBound hops, over live real
// arcs only.
func TestFaultWalkDeliversUnderFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dk := range [][2]int{{2, 4}, {3, 3}, {4, 2}, {5, 2}, {4, 1}} {
		fr, err := NewFaultRouter(dk[0], dk[1])
		if err != nil {
			t.Fatal(err)
		}
		n, g := fr.NumVertices(), fr.Graph()
		for f := 0; f < fr.Trees(); f++ {
			for rep := 0; rep < 4; rep++ {
				set := sampleArcs(fr, f, rng)
				for trial := 0; trial < 40; trial++ {
					src, dst := rng.Intn(n), rng.Intn(n)
					w, err := fr.Walk(src, dst, set.failed)
					if err != nil {
						t.Fatal(err)
					}
					if !w.Delivered {
						t.Fatalf("DG%v %d→%d stranded under %d < %d failures: %s", dk, src, dst, f, fr.Trees(), w.Reason)
					}
					if w.Hops > fr.HopBound() {
						t.Fatalf("DG%v %d→%d: %d hops exceeds bound %d", dk, src, dst, w.Hops, fr.HopBound())
					}
					for i := 1; i < len(w.Verts); i++ {
						u, v := int(w.Verts[i-1]), int(w.Verts[i])
						if !g.HasEdge(u, v) {
							t.Fatalf("DG%v walk crossed non-arc %d→%d", dk, u, v)
						}
						if set.failed(u, v) {
							t.Fatalf("DG%v walk crossed failed arc %d→%d", dk, u, v)
						}
					}
				}
			}
		}
	}
}

// Failing every parent arc at the source (Trees arcs, one per tree)
// must strand it with the explicit no-live-arc reason.
func TestFaultWalkNoLiveArc(t *testing.T) {
	fr, err := NewFaultRouter(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := 4
	dec, err := fr.Decomposition(dst)
	if err != nil {
		t.Fatal(err)
	}
	src := 7
	set := arcSet{}
	for tr := 0; tr < fr.Trees(); tr++ {
		set[[2]int{src, int(dec[tr][src])}] = true
	}
	w, err := fr.Walk(src, dst, set.failed)
	if err != nil {
		t.Fatal(err)
	}
	if w.Delivered || w.Reason != WalkReasonNoLiveArc {
		t.Fatalf("walk with all parent arcs failed: delivered=%v reason=%q", w.Delivered, w.Reason)
	}
	if w.Hops != 0 {
		t.Fatalf("stranded walk moved %d hops", w.Hops)
	}
}

// DetourPath must emit a concrete hop path that replays from src to
// dst through the word shifts.
func TestDetourPathApplies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dk := range [][2]int{{2, 5}, {3, 3}} {
		d, k := dk[0], dk[1]
		fr, err := NewFaultRouter(d, k)
		if err != nil {
			t.Fatal(err)
		}
		n := fr.NumVertices()
		set := sampleArcs(fr, fr.Trees()-1, rng)
		for trial := 0; trial < 60; trial++ {
			sv, tv := rng.Intn(n), rng.Intn(n)
			src, err := word.Unrank(d, k, uint64(sv))
			if err != nil {
				t.Fatal(err)
			}
			dst, err := word.Unrank(d, k, uint64(tv))
			if err != nil {
				t.Fatal(err)
			}
			p, w, err := fr.DetourPath(src, dst, set.failed)
			if err != nil {
				t.Fatal(err)
			}
			if !w.Delivered {
				t.Fatalf("DG(%d,%d) %v→%v stranded under %d failures", d, k, src, dst, fr.Trees()-1)
			}
			if len(p) != w.Hops {
				t.Fatalf("path length %d != walk hops %d", len(p), w.Hops)
			}
			end, err := p.Apply(src, nil)
			if err != nil {
				t.Fatalf("detour path does not apply: %v", err)
			}
			if !end.Equal(dst) {
				t.Fatalf("detour path ends at %v, want %v", end, dst)
			}
		}
	}
}

func TestFaultRouterErrors(t *testing.T) {
	if _, err := NewFaultRouter(2, 64); !errors.Is(err, ErrFaultRoute) {
		t.Fatalf("huge graph accepted: %v", err)
	}
	fr, err := NewFaultRouter(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Walk(-1, 0, nil); !errors.Is(err, ErrFaultRoute) {
		t.Fatalf("bad src accepted: %v", err)
	}
	if _, err := fr.Decomposition(99); !errors.Is(err, ErrFaultRoute) {
		t.Fatalf("bad root accepted: %v", err)
	}
	w8, _ := word.New(2, []byte{0, 0, 0, 0})
	w3, _ := word.New(2, []byte{0, 0, 0})
	if _, _, err := fr.DetourPath(w8, w3, nil); !errors.Is(err, ErrFaultRoute) {
		t.Fatalf("mismatched word accepted: %v", err)
	}
}

// Decompositions are deterministic per (d,k,root) — the property the
// byte-identical dbcheck verdicts and cross-process agreement rest on.
func TestDecompositionDeterministic(t *testing.T) {
	build := func() [][]int32 {
		// A fresh store per build, so the second one is not a cache hit.
		fr, err := newFaultRouter(newStore[faultKey, any](1<<20), 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := fr.Decomposition(11)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	a, b := build(), build()
	if &a[0][0] == &b[0][0] {
		t.Fatal("two stores shared one decomposition")
	}
	for tr := range a {
		for v := range a[tr] {
			if a[tr][v] != b[tr][v] {
				t.Fatalf("decomposition diverged at tree %d vertex %d", tr, v)
			}
		}
	}
}

// The fault-routing store stays under its byte budget while cycling
// through more destinations than fit, with the router resident beside
// the families; a family that finds no room is still built and
// returned, uncached.
func TestDecompositionStoreBounded(t *testing.T) {
	const d, k = 2, 6 // 64 vertices, 2 trees: 512 B/root
	probe := newStore[faultKey, any](1 << 20)
	if _, err := newFaultRouter(probe, d, k); err != nil {
		t.Fatal(err)
	}
	routerBytes, _, _ := probe.usage()
	perRoot := int64(FaultTrees(d, k)) * 64 * 4
	if routerBytes < perRoot {
		t.Fatalf("router charged %d bytes, less than a family's %d", routerBytes, perRoot)
	}
	st := newStore[faultKey, any](routerBytes + 3*perRoot)
	fr, err := newFaultRouter(st, d, k)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for root := 0; root < 8; root++ {
			dec, err := fr.Decomposition(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != fr.Trees() || dec[0][root] != -1 {
				t.Fatalf("root %d: family of %d trees, parent[root] = %d", root, len(dec), dec[0][root])
			}
			st.mu.Lock()
			bytes, entries := st.bytes, len(st.m)
			st.mu.Unlock()
			if bytes > st.cap {
				t.Fatalf("fault store at %d bytes, cap %d", bytes, st.cap)
			}
			// Every entry, the router's too, is at least a family's size.
			if int64(entries) > st.cap/perRoot {
				t.Fatalf("fault store holds %d entries, cap admits %d", entries, st.cap/perRoot)
			}
		}
	}

	// Room for neither the router nor a family: both are built and
	// returned uncached.
	tight := newStore[faultKey, any](perRoot - 1)
	fr, err = newFaultRouter(tight, d, k)
	if err != nil {
		t.Fatal(err)
	}
	for root := 0; root < 2; root++ {
		if _, err := fr.Decomposition(root); err != nil {
			t.Fatal(err)
		}
	}
	if bytes, _, builds := tight.usage(); bytes != 0 || builds != 0 {
		t.Fatalf("tight store: %d bytes, %d builds; want nothing cached", bytes, builds)
	}
}

// Satellite: structure-switch routing with failures injected while
// walks are in flight (run under -race in CI). Concurrent walkers
// share one mutating failure set; every attempt must either deliver
// or drop with an explicit reason, and the conservation count must be
// exact. Mid-walk mutation voids the static delivery guarantee — a
// walk may straddle several failure sets — but never the safety
// contract: no walk may exceed the hop bound, crash, or end in a
// state that is neither delivered nor explained.
func TestFaultWalkConcurrentFailures(t *testing.T) {
	fr, err := NewFaultRouter(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := fr.NumVertices()
	g := fr.Graph()

	var mu sync.RWMutex
	live := arcSet{}
	failed := func(u, v int) bool {
		mu.RLock()
		defer mu.RUnlock()
		return live[[2]int{u, v}]
	}

	const walkers = 8
	const perWalker = 400
	var delivered, dropped [walkers]int
	done := make(chan struct{})

	var injWG, walkWG sync.WaitGroup
	injWG.Add(1)
	go func() { // injector: churn the failure set while walks run
		defer injWG.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			u := rng.Intn(n)
			nbrs := g.OutNeighbors(u)
			arc := [2]int{u, int(nbrs[rng.Intn(len(nbrs))])}
			mu.Lock()
			if len(live) >= fr.Trees()-1 || (len(live) > 0 && i%3 == 0) {
				for k := range live {
					delete(live, k)
					break
				}
			} else {
				live[arc] = true
			}
			mu.Unlock()
		}
	}()

	for wk := 0; wk < walkers; wk++ {
		walkWG.Add(1)
		go func(wk int) {
			defer walkWG.Done()
			rng := rand.New(rand.NewSource(int64(wk)))
			for i := 0; i < perWalker; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				w, err := fr.Walk(src, dst, failed)
				if err != nil {
					t.Errorf("walker %d: %v", wk, err)
					return
				}
				switch {
				case w.Delivered:
					if w.Reason != "" {
						t.Errorf("delivered walk carries reason %q", w.Reason)
						return
					}
					delivered[wk]++
				case w.Reason == WalkReasonNoLiveArc || w.Reason == WalkReasonHopBudget:
					dropped[wk]++
				default:
					t.Errorf("walk neither delivered nor explained: %+v", w)
					return
				}
				if w.Hops > fr.HopBound() {
					t.Errorf("walk exceeded hop bound: %d > %d", w.Hops, fr.HopBound())
					return
				}
			}
		}(wk)
	}

	walkWG.Wait()
	close(done)
	injWG.Wait()

	if t.Failed() {
		return
	}
	sum := 0
	for wk := 0; wk < walkers; wk++ {
		sum += delivered[wk] + dropped[wk]
	}
	if sum != walkers*perWalker {
		t.Fatalf("conservation broken: delivered+dropped = %d, attempts = %d", sum, walkers*perWalker)
	}
}
