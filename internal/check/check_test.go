package check

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/word"
)

// TestRoutesClean runs the exhaustive route oracle on a spread of
// small graphs, including the k=1 complete graph and the k≤2 edge
// cases from the saturated-sentinel audit.
func TestRoutesClean(t *testing.T) {
	for _, tc := range []struct{ d, k int }{
		{2, 1}, {2, 2}, {2, 3}, {2, 5}, {3, 1}, {3, 2}, {3, 3}, {4, 2}, {5, 2}, {7, 1}, {2, 7},
	} {
		rep, err := Routes(tc.d, tc.k, RoutesOptions{Seed: 1})
		if err != nil {
			t.Fatalf("Routes(%d,%d): %v", tc.d, tc.k, err)
		}
		if !rep.OK() {
			for _, f := range rep.Findings {
				t.Errorf("DG(%d,%d): %s", tc.d, tc.k, f)
			}
		}
		if rep.Sampled {
			t.Errorf("DG(%d,%d): sampled, want exhaustive", tc.d, tc.k)
		}
		n, _ := word.Count(tc.d, tc.k)
		if rep.Checked != n*n {
			t.Errorf("DG(%d,%d): checked %d pairs, want %d", tc.d, tc.k, rep.Checked, n*n)
		}
	}
}

// TestRoutesSampled exercises the seeded-sample branch, including
// sample sizes that don't divide into the per-source grouping (the
// remainder must be checked, not silently dropped).
func TestRoutesSampled(t *testing.T) {
	for _, pairs := range []int{256, 100, 65, 17} {
		rep, err := Routes(2, 6, RoutesOptions{Seed: 2, SampleAbove: 32, SamplePairs: pairs})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sampled {
			t.Fatal("expected a sampled report above the threshold")
		}
		if rep.Checked != pairs {
			t.Fatalf("checked %d pairs, want %d", rep.Checked, pairs)
		}
		if !rep.OK() {
			t.Fatalf("findings on DG(2,6): %v", rep.Findings)
		}
	}
}

// TestRoutesDetectsCorruptPath proves the replay oracle fires: a path
// with a wrong digit, a wrong hop type, or a truncated tail must be
// reported, not silently accepted.
func TestRoutesDetectsCorruptPath(t *testing.T) {
	const d, k = 2, 4
	ug, err := graph.DeBruijn(graph.Undirected, d, k)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.DeBruijn(graph.Directed, d, k)
	if err != nil {
		t.Fatal(err)
	}
	x := mustWord(t, d, "0110")
	y := mustWord(t, d, "1011")
	p, err := core.RouteUndirected(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 {
		t.Fatal("need a non-trivial path")
	}
	corrupt := func(mutate func(core.Path) core.Path) []Finding {
		f := newFindings(8)
		sc := newRouteScan(d, k, dg, ug, RoutesOptions{Seed: 3}, f, 0)
		if err := sc.openSource(x); err != nil {
			t.Fatal(err)
		}
		q := append(core.Path(nil), p...)
		sc.replay("alg2", ug, mutate(q), y, len(p))
		return f.list
	}

	if got := corrupt(func(q core.Path) core.Path { return q }); len(got) != 0 {
		t.Fatalf("pristine path reported: %v", got)
	}
	if got := corrupt(func(q core.Path) core.Path {
		q[0].Digit = 1 - q[0].Digit
		q[0].Wildcard = false
		return q
	}); len(got) == 0 {
		t.Error("flipped digit not reported")
	}
	if got := corrupt(func(q core.Path) core.Path { return q[:len(q)-1] }); len(got) == 0 {
		t.Error("truncated path not reported")
	} else if !strings.Contains(got[0].Oracle, "route-length") {
		t.Errorf("truncated path reported as %q, want a route-length finding", got[0].Oracle)
	}
	if got := corrupt(func(q core.Path) core.Path {
		q[0].Digit = byte(d)
		q[0].Wildcard = false
		return q
	}); len(got) == 0 {
		t.Error("out-of-base digit not reported")
	}
}

// TestRoutesDetectsSelfMove proves the edge-set replay rejects a
// phantom self-move: at a constant word the left shift by the same
// digit "moves" to the same vertex, and DG(d,k) has no self-loops.
func TestRoutesDetectsSelfMove(t *testing.T) {
	const d, k = 2, 3
	ug, err := graph.DeBruijn(graph.Undirected, d, k)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := graph.DeBruijn(graph.Directed, d, k)
	if err != nil {
		t.Fatal(err)
	}
	x := mustWord(t, d, "000")
	y := mustWord(t, d, "001")
	f := newFindings(8)
	sc := newRouteScan(d, k, dg, ug, RoutesOptions{Seed: 4}, f, 0)
	if err := sc.openSource(x); err != nil {
		t.Fatal(err)
	}
	// A fake 2-hop path whose first hop shifts 000 onto itself.
	fake := core.Path{{Type: core.TypeL, Digit: 0}, {Type: core.TypeL, Digit: 1}}
	sc.replay("fake", ug, fake, y, 2)
	if len(f.list) == 0 {
		t.Fatal("self-move path not reported")
	}
	if !strings.Contains(f.list[0].Oracle, "route-replay") {
		t.Fatalf("self-move reported as %q, want a route-replay finding", f.list[0].Oracle)
	}
}

// TestInvariantsClean balances the books on small graphs.
func TestInvariantsClean(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{2, 2}, {2, 4}, {3, 2}} {
		rep, err := Invariants(tc.d, tc.k, InvariantsOptions{Seed: 6, Messages: 200, Rounds: 40})
		if err != nil {
			t.Fatalf("Invariants(%d,%d): %v", tc.d, tc.k, err)
		}
		if !rep.OK() {
			for _, f := range rep.Findings {
				t.Errorf("DN(%d,%d): %s", tc.d, tc.k, f)
			}
		}
		if rep.Checked == 0 {
			t.Errorf("DN(%d,%d): no invariants asserted", tc.d, tc.k)
		}
	}
}

// TestInvariantsDetectImbalance proves balanceBooks fires on cooked
// books: a snapshot whose counters don't sum must be reported.
func TestInvariantsDetectImbalance(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dn_messages_sent_total").Add(10)
	reg.Counter("dn_messages_delivered_total").Add(6)
	reg.Counter("dn_messages_dropped_total").Add(3) // 6+3 ≠ 10
	reg.Counter(obs.Label("dn_drops_total", "reason", "x")).Add(2)
	for i := 0; i < 6; i++ {
		reg.Histogram("dn_hops", nil).Observe(1)
	}
	iv := &invariantScan{d: 2, k: 2, n: 4, f: newFindings(8)}
	iv.balanceBooks("cooked", reg.Snapshot(), 10)
	// sent ≠ delivered+dropped AND dropped ≠ Σ by-reason.
	if len(iv.f.list) != 2 {
		t.Fatalf("cooked books: got %d findings, want 2: %v", len(iv.f.list), iv.f.list)
	}
}

// TestWorkloadSaltDistinct pins that scenarios whose names merely
// share a length (the old salt) still get distinct RNG streams.
func TestWorkloadSaltDistinct(t *testing.T) {
	iv := &invariantScan{d: 2, k: 3, opt: InvariantsOptions{Seed: 1, Messages: 16}}
	_, a := iv.workload("stepped/static-faults")
	_, b := iv.workload("stepped/midrun-faults")
	same := true
	for i := range a {
		if a[i].String() != b[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("scenarios with same-length names drew identical message plans")
	}
}

// TestReportOK pins the verdict semantics.
func TestReportOK(t *testing.T) {
	if ok := (Report{}).OK(); !ok {
		t.Error("empty report must be OK")
	}
	if ok := (Report{Findings: []Finding{{Oracle: "x", Detail: "y"}}}).OK(); ok {
		t.Error("report with findings must not be OK")
	}
	if ok := (Report{Truncated: true}).OK(); ok {
		t.Error("truncated report must not be OK")
	}
}

// TestFindingsCap pins the truncation behaviour.
func TestFindingsCap(t *testing.T) {
	f := newFindings(2)
	for i := 0; i < 5; i++ {
		f.addf("o", "finding %d", i)
	}
	if len(f.list) != 2 || !f.full() {
		t.Fatalf("cap not enforced: %d findings, full=%v", len(f.list), f.full())
	}
}

func mustWord(t *testing.T, d int, s string) word.Word {
	t.Helper()
	w, err := word.Parse(d, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
