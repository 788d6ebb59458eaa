package fault

import (
	"testing"

	"repro/internal/graph"
)

func deBruijn(t *testing.T, kind graph.Kind, d, k int) *graph.Graph {
	t.Helper()
	g, err := graph.DeBruijn(kind, d, k)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPradhanReddyToleranceExhaustive(t *testing.T) {
	// E8: the paper (§1, citing Pradhan–Reddy) claims tolerance of up
	// to d-1 failures; the claim concerns the bi-directional network.
	// Undirected DG(d,k) has vertex connectivity 2d-2, so every
	// failure set of size ≤ 2d-3 (⊇ the paper's ≤ d-1) leaves it
	// connected.
	for _, dk := range [][2]int{{2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}, {5, 2}} {
		d, k := dk[0], dk[1]
		g := deBruijn(t, graph.Undirected, d, k)
		for f := 0; f <= 2*d-3; f++ {
			rep, err := ExhaustiveTolerance(g, f)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Tolerated {
				t.Errorf("undirected DG(%d,%d) disconnected by %d failures: %v", d, k, f, rep.CounterExample)
			}
		}
	}
}

func TestDirectedToleranceIsDMinus2(t *testing.T) {
	// The uni-directional network is weaker: constant vertices have
	// out-degree d-1, so strong connectivity is d-1 and only d-2
	// failures are tolerated. Removing all out-neighbors of 0^k (the
	// d-1 vertices 0^{k-1}a, a ≠ 0) silences it.
	for _, dk := range [][2]int{{2, 3}, {3, 2}, {3, 3}, {4, 2}, {5, 2}} {
		d, k := dk[0], dk[1]
		g := deBruijn(t, graph.Directed, d, k)
		for f := 0; f <= d-2; f++ {
			rep, err := ExhaustiveTolerance(g, f)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Tolerated {
				t.Errorf("directed DG(%d,%d) disconnected by %d failures: %v", d, k, f, rep.CounterExample)
			}
		}
		if d >= 3 { // d-1 ≥ 2 failures: find the counterexample
			rep, err := ExhaustiveTolerance(g, d-1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tolerated {
				t.Errorf("directed DG(%d,%d) unexpectedly survived all %d-failure sets", d, k, d-1)
			}
		}
	}
}

func TestUndirectedConnectivityCounterexampleAt2dMinus2(t *testing.T) {
	// Removing the 2d-2 neighbors of a constant vertex isolates it.
	for _, dk := range [][2]int{{2, 3}, {3, 2}, {3, 3}} {
		d, k := dk[0], dk[1]
		g := deBruijn(t, graph.Undirected, d, k)
		rep, err := ExhaustiveTolerance(g, 2*d-2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tolerated {
			t.Errorf("undirected DG(%d,%d) survived all %d-failure sets", d, k, 2*d-2)
		}
	}
}

func TestToleranceBreaksAtSomePoint(t *testing.T) {
	// DG(2,3) undirected: vertices 000 and 111 have degree 2, so some
	// 2-failure set disconnects them.
	g := deBruijn(t, graph.Undirected, 2, 3)
	rep, err := ExhaustiveTolerance(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tolerated {
		t.Error("DG(2,3) survived all 2-failure sets; expected a counterexample")
	}
	if len(rep.CounterExample) != 2 {
		t.Errorf("counterexample = %v", rep.CounterExample)
	}
}

func TestExhaustiveToleranceValidates(t *testing.T) {
	g := deBruijn(t, graph.Undirected, 2, 3)
	if _, err := ExhaustiveTolerance(g, -1); err == nil {
		t.Error("accepted negative failure count")
	}
	if _, err := ExhaustiveTolerance(g, 8); err == nil {
		t.Error("accepted failure count = N")
	}
	big := deBruijn(t, graph.Undirected, 2, 10)
	if _, err := ExhaustiveTolerance(big, 5); err == nil {
		t.Error("accepted over-budget enumeration")
	}
}

func TestMinVertexConnectivity(t *testing.T) {
	// Undirected DG(2,3): minimum degree 2 bounds connectivity by 2;
	// Pradhan–Reddy guarantees ≥ d-1 = 1; exact value is 2.
	g := deBruijn(t, graph.Undirected, 2, 3)
	conn, err := MinVertexConnectivity(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if conn != 2 {
		t.Errorf("connectivity = %d, want 2", conn)
	}
	// Sampled variant lower-bounds nothing but must not exceed exact.
	sampled, err := MinVertexConnectivity(g, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sampled < conn {
		t.Errorf("sampled connectivity %d below exact %d", sampled, conn)
	}
}

func TestMinVertexConnectivityDirected(t *testing.T) {
	g := deBruijn(t, graph.Directed, 3, 2)
	conn, err := MinVertexConnectivity(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Directed DG(3,2): constants have in/out degree d-1 = 2.
	if conn != 2 {
		t.Errorf("connectivity = %d, want 2", conn)
	}
}

func TestRerouteStretch(t *testing.T) {
	g := deBruijn(t, graph.Undirected, 2, 5)
	res, err := RerouteStretch(g, []int{3, 17}, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs+res.Disconnected != 200 {
		t.Errorf("measured %d pairs", res.Pairs+res.Disconnected)
	}
	if res.MeanStretch < 1 {
		t.Errorf("mean stretch %v below 1", res.MeanStretch)
	}
	if res.MaxStretch < res.MeanStretch {
		t.Errorf("max %v below mean %v", res.MaxStretch, res.MeanStretch)
	}
}

func TestRerouteStretchNoFailuresIsUnity(t *testing.T) {
	g := deBruijn(t, graph.Undirected, 2, 4)
	res, err := RerouteStretch(g, nil, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanStretch != 1 || res.MaxStretch != 1 || res.MeanExtraHops != 0 {
		t.Errorf("fault-free stretch = %+v", res)
	}
	if res.Disconnected != 0 {
		t.Errorf("fault-free disconnections: %d", res.Disconnected)
	}
}

func TestRerouteStretchValidates(t *testing.T) {
	g := deBruijn(t, graph.Undirected, 2, 3)
	if _, err := RerouteStretch(g, []int{99}, 10, 1); err == nil {
		t.Error("accepted out-of-range failure")
	}
	if _, err := RerouteStretch(g, nil, 0, 1); err == nil {
		t.Error("accepted zero pairs")
	}
	if _, err := RerouteStretch(g, []int{0, 1, 2, 3, 4, 5, 6, 7}, 10, 1); err == nil {
		t.Error("accepted all vertices failed")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 0, 1}, {5, 1, 5}, {5, 2, 10}, {5, 5, 1}, {5, 6, 0}, {10, 3, 120},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}
