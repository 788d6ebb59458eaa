package cluster

import (
	"testing"

	"repro/internal/serve"
)

// TestDriveTalliesAndFiresOnce pins Drive's contract on a healthy
// cluster: every request gets a response, each is timed, and the
// event fires exactly once.
func TestDriveTalliesAndFiresOnce(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 3, Seed: 5, IDLen: 8, Replication: 1})
	reqs := Queries(5, 8, 90, true)
	fired := 0
	res, err := h.Drive([]Driver{
		{Node: 0, Reqs: reqs[:30]},
		{Node: 1, Reqs: reqs[30:60]},
		{Node: 2, Reqs: reqs[60:]},
	}, func() error { fired++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	tot := Total(res)
	if tot.OK != len(reqs) || tot.Errs != 0 || len(tot.Lats) != len(reqs) {
		t.Fatalf("tally %d ok, %d errs, %d latencies for %d requests (first error: %v)",
			tot.OK, tot.Errs, len(tot.Lats), len(reqs), tot.FirstErr)
	}
}

// TestDriveWaitsOnFailedRedial kills the node one driver dials: that
// driver's requests fail, its redial fails, and Drive reports the
// error — but only after the surviving driver has run to the end.
func TestDriveWaitsOnFailedRedial(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 3, Seed: 6, IDLen: 8, Replication: 1})
	reqs := Queries(6, 8, 30, false)
	long := Queries(7, 8, 20000, false)
	res, err := h.Drive([]Driver{
		{Node: 0, Reqs: reqs},
		{Node: 2, Reqs: long},
	}, func() error {
		_, err := h.Kill(2)
		return err
	})
	if err == nil {
		t.Fatal("driver on a killed node redialed without error")
	}
	if res[0].OK != len(reqs) {
		t.Fatalf("surviving driver: %d of %d requests answered (first error: %v)", res[0].OK, len(reqs), res[0].FirstErr)
	}
	if res[1].Errs == 0 || res[1].OK == len(long) {
		t.Fatalf("killed node's driver: %d ok, %d errs", res[1].OK, res[1].Errs)
	}
}

// TestQueriesSeeded pins the request generator: a pure function of its
// arguments, cycling kinds, undirected unless modes are mixed.
func TestQueriesSeeded(t *testing.T) {
	a, b := Queries(3, 6, 60, true), Queries(3, 6, 60, true)
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].Mode != b[i].Mode {
			t.Fatalf("request %d differs across identical calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Kind != "distance" || a[1].Kind != "route" || a[2].Kind != "nexthop" {
		t.Fatalf("kinds %q %q %q, want distance, route, nexthop", a[0].Kind, a[1].Kind, a[2].Kind)
	}
	directed := 0
	for _, r := range a {
		if r.Mode == serve.Directed.String() {
			directed++
		}
	}
	if directed == 0 || directed == len(a) {
		t.Fatalf("mixed modes gave %d directed of %d", directed, len(a))
	}
	for _, r := range Queries(3, 6, 60, false) {
		if r.Mode != serve.Undirected.String() || len(r.Src) != 6 {
			t.Fatalf("unmixed request %+v: want undirected over DG(2,6)", r)
		}
	}
}
