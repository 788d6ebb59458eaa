package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/word"
)

// FuzzDistanceEquivalence throws arbitrary digit material at the three
// undirected distance evaluations and the route generators: they must
// agree with each other and produce walks of the claimed length.
func FuzzDistanceEquivalence(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 1, 0}, []byte{1, 0, 0, 1})
	f.Add(uint8(3), []byte{0, 1, 2}, []byte{2, 1, 0})
	f.Add(uint8(2), []byte{0}, []byte{1})
	f.Fuzz(func(t *testing.T, base uint8, xd, yd []byte) {
		if len(xd) != len(yd) || len(xd) == 0 || len(xd) > 64 {
			return
		}
		x, err := word.New(int(base), xd)
		if err != nil {
			return
		}
		y, err := word.New(int(base), yd)
		if err != nil {
			return
		}
		quad, err := UndirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := UndirectedDistanceLinear(x, y)
		if err != nil {
			t.Fatal(err)
		}
		cor, err := UndirectedDistanceCorollary(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if quad != lin || quad != cor {
			t.Fatalf("distances disagree for (%v,%v): quad %d lin %d cor %d", x, y, quad, lin, cor)
		}
		for name, route := range map[string]func(a, b word.Word) (Path, error){
			"alg2": RouteUndirected,
			"alg4": RouteUndirectedLinear,
		} {
			p, err := route(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if p.Len() != quad {
				t.Fatalf("%s: path length %d, want %d", name, p.Len(), quad)
			}
			end, err := p.Apply(x, FirstDigit)
			if err != nil {
				t.Fatal(err)
			}
			if !end.Equal(y) {
				t.Fatalf("%s: walk ends at %v, want %v", name, end, y)
			}
		}
	})
}

// FuzzDirectedAgainstBFS compares Property 1 with BFS on small graphs
// reachable from fuzzed digit material.
func FuzzDirectedAgainstBFS(f *testing.F) {
	f.Add([]byte{0, 1, 1}, []byte{1, 1, 0})
	f.Fuzz(func(t *testing.T, xd, yd []byte) {
		if len(xd) != len(yd) || len(xd) == 0 || len(xd) > 8 {
			return
		}
		x, err := word.New(2, xd)
		if err != nil {
			return
		}
		y, err := word.New(2, yd)
		if err != nil {
			return
		}
		got, err := DirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.DeBruijn(graph.Directed, 2, x.Len())
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.Distance(graph.DeBruijnVertex(x), graph.DeBruijnVertex(y))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("D(%v,%v) = %d, BFS %d", x, y, got, want)
		}
	})
}

// FuzzKernelTierEquivalence throws arbitrary digit material at the
// tier ladder: a scratch-forced, a packed-forced, and a table-admitting
// engine (plus the packed engine's batch frame) must return identical
// distances, paths, and next hops for every input. Lengths reach 256,
// so base-2 inputs span up to four packed words.
func FuzzKernelTierEquivalence(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 1, 0, 1, 0}, []byte{1, 0, 0, 1, 1, 1})
	f.Add(uint8(3), []byte{0, 1, 2, 2}, []byte{2, 1, 0, 0})
	f.Add(uint8(4), []byte{0, 3, 1, 2}, []byte{2, 0, 3, 1})
	f.Add(uint8(2), []byte{0}, []byte{1})
	digits := func(n int, digit func(i int) int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(digit(i))
		}
		return out
	}
	f.Add(uint8(2), digits(65, func(i int) int { return i / 3 % 2 }), digits(65, func(i int) int { return (i + 1) / 3 % 2 }))
	f.Add(uint8(2), digits(129, func(i int) int { return i * 7 % 5 % 2 }), digits(129, func(i int) int { return b2i(i == 64) }))
	f.Add(uint8(4), digits(65, func(i int) int { return i % 4 }), digits(65, func(i int) int { return (i + 5) % 4 }))
	f.Fuzz(func(t *testing.T, base uint8, xd, yd []byte) {
		if len(xd) != len(yd) || len(xd) == 0 || len(xd) > 256 {
			return
		}
		if base < 2 || base > 6 {
			return
		}
		x, err := word.New(int(base), xd)
		if err != nil {
			return
		}
		y, err := word.New(int(base), yd)
		if err != nil {
			return
		}
		engines := map[string]*Kernels{
			"scratch": NewKernels(KernelConfig{TableBudget: -1, DisablePacked: true}),
			"packed":  NewKernels(KernelConfig{TableBudget: -1}),
			"table":   NewKernels(KernelConfig{SyncTableBuild: true}),
		}
		// The reference is tier-free: Theorem 2, Property 1 and
		// Algorithm 2's path, which every tier must reproduce.
		wantU, err := UndirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := DirectedDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := RouteUndirected(x, y)
		if err != nil {
			t.Fatal(err)
		}
		var wantH Hop
		wantOK := len(wantP) > 0
		if wantOK {
			wantH = wantP[0]
		}
		for name, kn := range engines {
			gotU, err := kn.UndirectedDistance(x, y)
			if err != nil || gotU != wantU {
				t.Fatalf("%s: UndirectedDistance(%v,%v) = %d,%v want %d", name, x, y, gotU, err, wantU)
			}
			gotD, err := kn.DirectedDistance(x, y)
			if err != nil || gotD != wantD {
				t.Fatalf("%s: DirectedDistance(%v,%v) = %d,%v want %d", name, x, y, gotD, err, wantD)
			}
			gotP, err := kn.RouteUndirected(x, y)
			if err != nil || !slices.Equal(gotP, wantP) {
				t.Fatalf("%s: RouteUndirected(%v,%v) = %v,%v want %v", name, x, y, gotP, err, wantP)
			}
			gotH, gotOK, err := kn.NextHopUndirected(x, y)
			if err != nil || gotOK != wantOK || gotH != wantH {
				t.Fatalf("%s: NextHopUndirected(%v,%v) = %v,%v,%v want %v,%v", name, x, y, gotH, gotOK, err, wantH, wantOK)
			}
			fr := kn.Frame()
			i, err := fr.Add(x, y)
			if err != nil {
				t.Fatal(err)
			}
			gotU, err = fr.UndirectedDistance(i)
			if err != nil || gotU != wantU {
				t.Fatalf("%s frame: UndirectedDistance(%v,%v) = %d,%v want %d", name, x, y, gotU, err, wantU)
			}
			gotH, gotOK, err = fr.NextHopUndirected(i)
			if err != nil || gotOK != wantOK || gotH != wantH {
				t.Fatalf("%s frame: NextHopUndirected(%v,%v) = %v,%v,%v want %v,%v", name, x, y, gotH, gotOK, err, wantH, wantOK)
			}
		}
	})
}

// FuzzFaultReroute drives the arborescence fault router with
// arbitrary failure sets strictly smaller than the tree count: no
// such set may strand a pair. Delivered walks must stay within the
// hop bound, cross only live real arcs, and convert to a concrete
// detour path that replays src→dst.
func FuzzFaultReroute(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint16(3), uint16(9), int64(1))
	f.Add(uint8(3), uint8(3), uint16(0), uint16(25), int64(7))
	f.Add(uint8(4), uint8(2), uint16(15), uint16(1), int64(-3))
	f.Add(uint8(5), uint8(1), uint16(2), uint16(4), int64(11))
	f.Fuzz(func(t *testing.T, d, k uint8, srcRaw, dstRaw uint16, seed int64) {
		if d < 2 || d > 6 || k < 1 || k > 6 {
			return
		}
		fr, err := NewFaultRouter(int(d), int(k))
		if err != nil {
			return // oversize (d,k), not a finding
		}
		n := fr.NumVertices()
		src, dst := int(srcRaw)%n, int(dstRaw)%n
		g := fr.Graph()

		// Derive a failure set of size < Trees from the seed.
		rng := rand.New(rand.NewSource(seed))
		fcount := 0
		if fr.Trees() > 1 {
			fcount = rng.Intn(fr.Trees())
		}
		set := map[[2]int]bool{}
		for len(set) < fcount {
			u := rng.Intn(n)
			nbrs := g.OutNeighbors(u)
			if len(nbrs) == 0 {
				return
			}
			set[[2]int{u, int(nbrs[rng.Intn(len(nbrs))])}] = true
		}
		failed := func(u, v int) bool { return set[[2]int{u, v}] }

		w, err := fr.Walk(src, dst, failed)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Delivered {
			t.Fatalf("DG(%d,%d) %d→%d stranded by %d < %d failures: %s", d, k, src, dst, fcount, fr.Trees(), w.Reason)
		}
		if w.Hops > fr.HopBound() {
			t.Fatalf("walk took %d hops, bound %d", w.Hops, fr.HopBound())
		}
		for i := 1; i < len(w.Verts); i++ {
			u, v := int(w.Verts[i-1]), int(w.Verts[i])
			if !g.HasEdge(u, v) || failed(u, v) {
				t.Fatalf("walk crossed dead arc %d→%d", u, v)
			}
		}
		sw, err := word.Unrank(int(d), int(k), uint64(src))
		if err != nil {
			t.Fatal(err)
		}
		dw, err := word.Unrank(int(d), int(k), uint64(dst))
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := fr.DetourPath(sw, dw, failed)
		if err != nil {
			t.Fatal(err)
		}
		end, err := p.Apply(sw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !end.Equal(dw) {
			t.Fatalf("detour path ends at %v, want %v", end, dw)
		}
	})
}
