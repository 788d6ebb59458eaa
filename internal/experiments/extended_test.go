package experiments

import (
	"strings"
	"testing"
)

func TestOptimalityShape(t *testing.T) {
	rows, err := Optimality([][2]int{{2, 4}, {2, 8}, {3, 4}, {4, 3}, {8, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MooreDiam > r.Diameter {
			t.Errorf("DG(%d,%d): Moore bound %d above actual %d", r.D, r.K, r.MooreDiam, r.Diameter)
		}
		if r.Efficiency <= 0 || r.Efficiency > 1 {
			t.Errorf("DG(%d,%d): efficiency %v out of (0,1]", r.D, r.K, r.Efficiency)
		}
	}
	// Efficiency improves with d at fixed k=3: DG(8,3) closer to
	// optimal than DG(4,3)... both may round equal; check ≥.
	var e4, e8 float64
	for _, r := range rows {
		if r.D == 4 && r.K == 3 {
			e4 = r.Efficiency
		}
		if r.D == 8 && r.K == 3 {
			e8 = r.Efficiency
		}
	}
	if e8 < e4 {
		t.Errorf("efficiency fell from d=4 (%v) to d=8 (%v)", e4, e8)
	}
}

func TestBroadcastShape(t *testing.T) {
	rows, err := Broadcast([][2]int{{2, 4}, {2, 6}, {3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		n := 1
		for i := 0; i < r.K; i++ {
			n *= r.D
		}
		if r.TreeMessages != n-1 {
			t.Errorf("DN(%d,%d): tree used %d messages, want %d", r.D, r.K, r.TreeMessages, n-1)
		}
		if r.FloodMessages <= r.TreeMessages {
			t.Errorf("DN(%d,%d): flood %d not above tree %d", r.D, r.K, r.FloodMessages, r.TreeMessages)
		}
		if r.TreeRounds > r.K {
			t.Errorf("DN(%d,%d): %d rounds exceeds diameter", r.D, r.K, r.TreeRounds)
		}
	}
}

func TestDiversityShape(t *testing.T) {
	rows, err := Diversity([][2]int{{2, 3}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MeanPaths < 1 {
			t.Errorf("DG(%d,%d): mean paths %v below 1", r.D, r.K, r.MeanPaths)
		}
		if r.MaxPaths < 2 {
			t.Errorf("DG(%d,%d): no multipath pairs at all", r.D, r.K)
		}
		if r.MultiFraction <= 0 || r.MultiFraction >= 1 {
			t.Errorf("DG(%d,%d): multipath fraction %v", r.D, r.K, r.MultiFraction)
		}
	}
	// Diversity grows with k.
	if rows[1].MeanPaths <= rows[0].MeanPaths {
		t.Errorf("diversity did not grow with k: %v then %v", rows[0].MeanPaths, rows[1].MeanPaths)
	}
}

func TestExtendedTablesRender(t *testing.T) {
	opt, err := OptimalityTable([][2]int{{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.String(), "moore-min") {
		t.Error("optimality table missing header")
	}
	bc, err := BroadcastTable([][2]int{{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bc.String(), "flood msgs") {
		t.Error("broadcast table missing header")
	}
	div, err := DiversityTable([][2]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(div.String(), "multi-path") {
		t.Error("diversity table missing header")
	}
}
