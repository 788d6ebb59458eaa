package check

import (
	"reflect"
	"testing"
)

// reportsEqual compares everything except wall-clock-dependent fields
// (Report has none today, so this is full struct equality).
func reportsEqual(a, b Report) bool { return reflect.DeepEqual(a, b) }

// TestRoutesParallelMatchesSequential pins the sharded route scan to
// the plain loop it degenerates to at Workers ≤ 1, on clean graphs, for
// several worker counts — including counts above the shard count — in
// both exhaustive and sampled modes.
func TestRoutesParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		d, k int
		opt  RoutesOptions
	}{
		{2, 4, RoutesOptions{Seed: 7}},
		{3, 3, RoutesOptions{Seed: 7}},
		// Force sampled mode on a tiny graph to keep the test fast.
		{2, 5, RoutesOptions{Seed: 11, SampleAbove: 16, SamplePairs: 256}},
	} {
		base, err := Routes(tc.d, tc.k, tc.opt)
		if err != nil {
			t.Fatalf("Routes(%d,%d): %v", tc.d, tc.k, err)
		}
		if !base.OK() {
			t.Fatalf("Routes(%d,%d) found divergences: %+v", tc.d, tc.k, base.Findings)
		}
		for _, workers := range []int{1, 2, 3, 64} {
			opt := tc.opt
			opt.Workers = workers
			rep, err := Routes(tc.d, tc.k, opt)
			if err != nil {
				t.Fatalf("Routes(%d,%d) workers=%d: %v", tc.d, tc.k, workers, err)
			}
			if !reportsEqual(base, rep) {
				t.Errorf("Routes(%d,%d) workers=%d report %+v differs from sequential report %+v",
					tc.d, tc.k, workers, rep, base)
			}
		}
	}
}

// TestRoutesParallelWorkerCountInvariance pins the documented stronger
// property of the sharded scan: for ANY parallel worker count the
// shard decomposition — and hence the verdict — is the same.
func TestRoutesParallelWorkerCountInvariance(t *testing.T) {
	base, err := Routes(2, 4, RoutesOptions{Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 5, 16} {
		rep, err := Routes(2, 4, RoutesOptions{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reportsEqual(base, rep) {
			t.Errorf("workers=%d report %+v differs from workers=2 report %+v", workers, rep, base)
		}
	}
}

// TestInvariantsWorkerCountInvariance pins the scenario units' merged
// report to be the same for every worker count.
func TestInvariantsWorkerCountInvariance(t *testing.T) {
	opt := InvariantsOptions{Seed: 5, Messages: 64, Rounds: 48}
	base, err := Invariants(2, 3, opt)
	if err != nil {
		t.Fatalf("Invariants: %v", err)
	}
	if !base.OK() {
		t.Fatalf("Invariants found divergences: %+v", base.Findings)
	}
	for _, workers := range []int{1, 2, 3, 64} {
		opt.Workers = workers
		rep, err := Invariants(2, 3, opt)
		if err != nil {
			t.Fatalf("Invariants workers=%d: %v", workers, err)
		}
		if !reportsEqual(base, rep) {
			t.Errorf("Invariants workers=%d report %+v differs from workers=0 report %+v", workers, rep, base)
		}
	}
}

// TestMergeShards exercises the merge on synthetic shard results:
// ordering, cap truncation, checked summation, first-error-wins.
func TestMergeShards(t *testing.T) {
	mk := func(oracle string) []Finding { return []Finding{{Oracle: oracle, Detail: "x"}} }

	rep := Report{}
	err := mergeShards(&rep, []shardResult{
		{checked: 3, findings: mk("a")},
		{checked: 4, findings: []Finding{}},
		{checked: 5, findings: mk("b")},
	}, 32)
	if err != nil {
		t.Fatalf("mergeShards: %v", err)
	}
	if rep.Checked != 12 || rep.Truncated {
		t.Errorf("merged report = %+v, want Checked 12, not truncated", rep)
	}
	if len(rep.Findings) != 2 || rep.Findings[0].Oracle != "a" || rep.Findings[1].Oracle != "b" {
		t.Errorf("merged findings %+v not in shard order", rep.Findings)
	}

	// Cap truncation: 3 findings into a cap of 2.
	rep = Report{}
	if err := mergeShards(&rep, []shardResult{
		{findings: append(mk("a"), mk("b")...)},
		{findings: mk("c")},
	}, 2); err != nil {
		t.Fatalf("mergeShards: %v", err)
	}
	if len(rep.Findings) != 2 || !rep.Truncated {
		t.Errorf("capped merge = %+v, want 2 findings and truncated", rep)
	}

	// A shard that hit its own cap marks the report truncated even if
	// the merged list has room.
	rep = Report{}
	if err := mergeShards(&rep, []shardResult{{findings: mk("a"), full: true}}, 32); err != nil {
		t.Fatalf("mergeShards: %v", err)
	}
	if !rep.Truncated {
		t.Errorf("merge of a full shard = %+v, want truncated", rep)
	}

	// First shard error in shard order wins.
	rep = Report{}
	errA := errShard("a")
	if err := mergeShards(&rep, []shardResult{{err: errA}, {err: errShard("b")}}, 32); err != errA {
		t.Errorf("mergeShards error = %v, want %v", err, errA)
	}
}

type errShard string

func (e errShard) Error() string { return string(e) }
