package experiments

import (
	"testing"
	"time"
)

func TestKernelsShape(t *testing.T) {
	rows, err := Kernels([][2]int{{2, 6}, {2, 64}, {5, 16}}, time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	wantTier := map[[2]int]string{{2, 6}: "table", {2, 64}: "packed", {5, 16}: "scratch"}
	for _, r := range rows {
		if got := wantTier[[2]int{r.D, r.K}]; r.Tier != got {
			t.Errorf("DG(%d,%d): tier %q, want %q", r.D, r.K, r.Tier, got)
		}
		if r.ScratchNs <= 0 || r.TierNs <= 0 {
			t.Errorf("DG(%d,%d): non-positive timing %+v", r.D, r.K, r)
		}
		if r.Speedup <= 0 {
			t.Errorf("DG(%d,%d): speedup %v", r.D, r.K, r.Speedup)
		}
	}
	tbl, err := KernelsTable([][2]int{{2, 6}}, time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
}
