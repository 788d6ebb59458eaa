package experiments

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestEq5ShapeClaims(t *testing.T) {
	// E3: equation (5) upper-bounds the exact mean; both increase in
	// k; the gap shrinks with d at fixed k.
	rows, err := Eq5([]int{2, 3, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	byDK := map[[2]int]Eq5Row{}
	for _, r := range rows {
		if r.Gap < -1e-9 {
			t.Errorf("d=%d k=%d: formula below exact (gap %v)", r.D, r.K, r.Gap)
		}
		byDK[[2]int{r.D, r.K}] = r
	}
	for _, d := range []int{2, 3, 4} {
		prev := -1.0
		for k := 1; k <= 6; k++ {
			r, ok := byDK[[2]int{d, k}]
			if !ok {
				continue
			}
			if r.Exact <= prev {
				t.Errorf("d=%d: exact mean not increasing at k=%d", d, k)
			}
			prev = r.Exact
		}
	}
	// Larger d → smaller gap at k=4.
	if byDK[[2]int{3, 4}].Gap >= byDK[[2]int{2, 4}].Gap {
		t.Error("gap did not shrink from d=2 to d=3 at k=4")
	}
}

func TestFigure2ShapeClaims(t *testing.T) {
	// E4 (Figure 2): δ̄ grows roughly linearly in k with slope < 1,
	// increases in d at fixed k (the mean approaches the diameter as
	// the alphabet grows, exactly as eq. (5) shows for the directed
	// case), and sits below the directed mean.
	rows, err := Figure2([]int{2, 3}, 6, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	byDK := map[[2]int]Fig2Row{}
	for _, r := range rows {
		byDK[[2]int{r.D, r.K}] = r
	}
	for _, d := range []int{2, 3} {
		prev := -1.0
		for k := 1; k <= 6; k++ {
			r, ok := byDK[[2]int{d, k}]
			if !ok {
				continue
			}
			if r.Mean <= prev {
				t.Errorf("d=%d: Figure 2 series not increasing at k=%d", d, k)
			}
			if r.Mean-prev > 1.0+1e-9 && prev >= 0 {
				t.Errorf("d=%d k=%d: slope %v exceeds 1", d, k, r.Mean-prev)
			}
			prev = r.Mean
		}
	}
	if byDK[[2]int{3, 5}].Mean <= byDK[[2]int{2, 5}].Mean {
		t.Error("Figure 2: mean did not increase from d=2 to d=3 at k=5")
	}
	// Below the directed mean at the same (d,k).
	eq5rows, err := Eq5([]int{2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range eq5rows {
		fr, ok := byDK[[2]int{er.D, er.K}]
		if ok && er.K >= 2 && fr.Mean > er.Exact+1e-9 {
			t.Errorf("d=%d k=%d: undirected mean %v above directed %v", er.D, er.K, fr.Mean, er.Exact)
		}
	}
}

func TestCensusMatchesPredictions(t *testing.T) {
	rows, err := Census([]graph.Kind{graph.Directed, graph.Undirected},
		[][2]int{{2, 3}, {2, 5}, {3, 3}, {4, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Diameter != r.K {
			t.Errorf("%v DG(%d,%d): diameter %d != k", r.Kind, r.D, r.K, r.Diameter)
		}
		if r.Predicted != nil && !r.Match {
			t.Errorf("%v DG(%d,%d): census %v != predicted %v", r.Kind, r.D, r.K, r.Census, r.Predicted)
		}
	}
}

func TestCrossoverShape(t *testing.T) {
	// E6: at large k the linear algorithm must win.
	rows, err := Crossover([]int{4, 2048}, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.Alg2Faster {
		t.Errorf("k=%d: Alg2 (%v) still beats Alg4 (%v)", last.K, last.Alg2PerOp, last.Alg4PerOp)
	}
	if _, err := Crossover([]int{4}, 0, 1); err == nil {
		t.Error("accepted zero trials")
	}
}

func TestPolicyComparisonShape(t *testing.T) {
	rows, err := PolicyComparison(2, 6, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]PolicyRow{}
	for _, r := range rows {
		if r.Delivered != 1500 {
			t.Errorf("%s delivered %d", r.Policy, r.Delivered)
		}
		byName[r.Policy] = r
	}
	// All policies deliver with identical mean hops (routes are
	// optimal regardless of wildcard resolution).
	if byName["first"].MeanHops != byName["least-loaded"].MeanHops {
		t.Error("policies changed hop counts")
	}
	if byName["least-loaded"].LoadGini >= byName["first"].LoadGini {
		t.Errorf("least-loaded gini %v not below first %v",
			byName["least-loaded"].LoadGini, byName["first"].LoadGini)
	}
}

func TestFaultSweepShape(t *testing.T) {
	rows, err := FaultSweep([][2]int{{2, 3}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper claim: tolerate d-1 failures. Measured: 2d-3, with
		// connectivity 2d-2.
		if r.MaxTolerated < r.D-1 {
			t.Errorf("DG(%d,%d): tolerated only %d failures, paper claims %d", r.D, r.K, r.MaxTolerated, r.D-1)
		}
		if r.MaxTolerated != 2*r.D-3 {
			t.Errorf("DG(%d,%d): tolerated %d, want 2d-3 = %d", r.D, r.K, r.MaxTolerated, 2*r.D-3)
		}
		if r.Connectivity != 2*r.D-2 {
			t.Errorf("DG(%d,%d): connectivity %d, want %d", r.D, r.K, r.Connectivity, 2*r.D-2)
		}
	}
}

func TestTablesRender(t *testing.T) {
	eq5, err := Eq5Table([]int{2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eq5.String(), "eq(5)") {
		t.Error("eq5 table missing header")
	}
	fig2, err := Figure2Table([]int{2}, 4, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig2.String(), "exact") {
		t.Error("fig2 table missing mode")
	}
	census, err := CensusTable([]graph.Kind{graph.Undirected}, [][2]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(census.String(), "deg") {
		t.Error("census table missing census")
	}
	cross, err := CrossoverTable([]int{4}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cross.String(), "winner") {
		t.Error("crossover table missing winner")
	}
	pol, err := PolicyTable(2, 4, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pol.String(), "least-loaded") {
		t.Error("policy table missing policy")
	}
	ft, err := FaultTable([][2]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ft.String(), "connectivity") {
		t.Error("fault table missing connectivity")
	}
	dist, err := DistributionTable(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dist.String(), "distance") {
		t.Error("distribution table missing header")
	}
}
