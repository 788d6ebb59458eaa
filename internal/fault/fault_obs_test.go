package fault

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

func TestFaultObserver(t *testing.T) {
	g, err := graph.DeBruijn(graph.Undirected, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	SetObserver(reg)
	defer SetObserver(nil)

	rep, err := ExhaustiveTolerance(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Tolerated {
		t.Fatalf("DN(2,4) should tolerate 1 failure: %+v", rep)
	}
	res, err := RerouteStretch(g, []int{0}, 8, 11)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("fault_sets_examined_total"); got != 16 {
		t.Errorf("sets examined = %d, want 16", got)
	}
	if got := snap.Counter("fault_disconnecting_sets_total"); got != 0 {
		t.Errorf("disconnecting sets = %d, want 0", got)
	}
	if got := snap.Counter("fault_stretch_pairs_total"); got != int64(res.Pairs) {
		t.Errorf("stretch pairs = %d, want %d", got, res.Pairs)
	}
	if got := snap.Counter("fault_disconnected_pairs_total"); got != int64(res.Disconnected) {
		t.Errorf("disconnected pairs = %d, want %d", got, res.Disconnected)
	}
}
