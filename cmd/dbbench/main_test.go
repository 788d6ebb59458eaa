package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportRoundTrip runs a tiny benchmark sweep and validates the
// emitted BENCH_core.json against the schema consumers rely on.
func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	var b strings.Builder
	if err := run([]string{"-out", path, "-benchtime", "1ms", "-k", "8,16"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if rep.GoVersion == "" || rep.Benchtime != "1ms" {
		t.Errorf("header incomplete: %+v", rep)
	}
	// k=8: 3 scratch ops + 2 packed + 2 table + batch; k=16: the same
	// minus the table cells (DG(2,16) is over the default table budget).
	if len(rep.Results) != 14 {
		t.Fatalf("got %d results, want 14", len(rep.Results))
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		seen[r.Op] = true
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("%s d=%d k=%d: non-positive measurement %+v", r.Op, r.D, r.K, r)
		}
		if r.D != 2 || (r.K != 8 && r.K != 16) {
			t.Errorf("unexpected cell %+v", r)
		}
	}
	for _, op := range []string{"Router", "Distance", "Route", "PackedDistance", "PackedRoute", "TableDistance", "TableRoute", "BatchDistance"} {
		if !seen[op] {
			t.Errorf("op %s missing from report", op)
		}
	}
}

// TestNetworkSuiteRoundTrip validates the BENCH_network.json report:
// one whole-engine cell per (op, k), under its own schema.
func TestNetworkSuiteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_network.json")
	var b strings.Builder
	if err := run([]string{"-suite", "network", "-out", path, "-benchtime", "1x", "-k", "4,5"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if rep.Schema != SchemaNetwork {
		t.Errorf("schema = %q, want %q", rep.Schema, SchemaNetwork)
	}
	// 3 engines × 2 k values.
	if len(rep.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(rep.Results))
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		seen[r.Op] = true
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("%s d=%d k=%d: non-positive measurement %+v", r.Op, r.D, r.K, r)
		}
	}
	for _, op := range []string{"Contention", "OpenLoop", "Deflect"} {
		if !seen[op] {
			t.Errorf("op %s missing from report", op)
		}
	}
}

// TestServeSuiteRoundTrip validates the BENCH_serve.json report and
// the allocation pins the serving layer's acceptance rests on: hits
// and distance misses are allocation-free, a route miss allocates only
// its returned path.
func TestServeSuiteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var b strings.Builder
	if err := run([]string{"-suite", "serve", "-out", path, "-benchtime", "1ms", "-k", "8,64"}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if rep.Schema != SchemaServe {
		t.Errorf("schema = %q, want %q", rep.Schema, SchemaServe)
	}
	// 9 ops × 2 k values.
	if len(rep.Results) != 18 {
		t.Fatalf("got %d results, want 18", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("%s d=%d k=%d: non-positive measurement %+v", r.Op, r.D, r.K, r)
		}
		if raceEnabled {
			continue // instrumented alloc counts are not meaningful
		}
		if strings.HasSuffix(r.Op, "Traced") {
			continue // the sampled path allocates its trace by design
		}
		budget := int64(0)
		switch r.Op {
		case "ServeMissRoute":
			budget = 1
		case "ServeWireRoute":
			// Per frame read one or two buffers (the body outgrows the
			// header's), then src, dst and the decoded path.
			budget = 6
		}
		if r.AllocsPerOp > budget {
			t.Errorf("%s d=%d k=%d: %d allocs/op, budget %d", r.Op, r.D, r.K, r.AllocsPerOp, budget)
		}
	}
}

func TestUnknownSuite(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-suite", "nope"}, &b); err == nil {
		t.Error("accepted unknown suite")
	}
}

func TestStdoutOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-out", "-", "-benchtime", "1ms", "-k", "8"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"schema": "dbbench/core/v1"`) {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-k", "eight"}, &b); err == nil {
		t.Error("accepted unparsable -k")
	}
}

// TestCompareReports pins the perf-gate arithmetic on synthetic
// reports: both regression kinds fire, both tolerances hold, and
// unmatched cells are skipped.
func TestCompareReports(t *testing.T) {
	base := Report{Results: []Result{
		{Op: "Router", D: 2, K: 8, NsPerOp: 1000, AllocsPerOp: 1},
		{Op: "Route", D: 2, K: 64, NsPerOp: 2000, AllocsPerOp: 100},
		{Op: "Distance", D: 2, K: 512, NsPerOp: 9000, AllocsPerOp: 0},
	}}

	// Identical measurements: clean.
	if regs, compared := compareReports(base, base, 0.75); len(regs) != 0 || compared != 3 {
		t.Errorf("self-compare = (%v, %d), want no regressions over 3 cells", regs, compared)
	}

	// Within tolerance: ns under ×1.75, allocs under base+max(8, base/4).
	cur := Report{Results: []Result{
		{Op: "Router", D: 2, K: 8, NsPerOp: 1700, AllocsPerOp: 9},    // 1+8 slack
		{Op: "Route", D: 2, K: 64, NsPerOp: 3400, AllocsPerOp: 125},  // 100+25 slack
		{Op: "OpenLoop", D: 2, K: 5, NsPerOp: 1e12, AllocsPerOp: 99}, // not in baseline
	}}
	if regs, compared := compareReports(base, cur, 0.75); len(regs) != 0 || compared != 2 {
		t.Errorf("tolerant compare = (%v, %d), want no regressions over 2 cells", regs, compared)
	}

	// Injected regressions: one ns blowup, one allocs blowup.
	cur = Report{Results: []Result{
		{Op: "Router", D: 2, K: 8, NsPerOp: 1800, AllocsPerOp: 1},   // ns > 1750
		{Op: "Route", D: 2, K: 64, NsPerOp: 2000, AllocsPerOp: 126}, // allocs > 125
	}}
	regs, _ := compareReports(base, cur, 0.75)
	if len(regs) != 2 {
		t.Fatalf("injected regressions produced %v, want 2 findings", regs)
	}
	if !strings.Contains(regs[0], "ns/op") || !strings.Contains(regs[1], "allocs/op") {
		t.Errorf("regression messages %v missing ns/allocs detail", regs)
	}
}

// TestCompareGate runs the end-to-end gate: a generous synthetic
// baseline passes, an impossible one makes run return an error.
func TestCompareGate(t *testing.T) {
	writeBaseline := func(ns float64) string {
		t.Helper()
		rep := Report{Schema: Schema, Results: []Result{
			{Op: "Router", D: 2, K: 8, NsPerOp: ns, AllocsPerOp: 1 << 20},
			{Op: "Distance", D: 2, K: 8, NsPerOp: ns, AllocsPerOp: 1 << 20},
			{Op: "Route", D: 2, K: 8, NsPerOp: ns, AllocsPerOp: 1 << 20},
		}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Compare-only mode: nothing written, generous baseline passes.
	var b strings.Builder
	if err := run([]string{"-compare", writeBaseline(1e12), "-benchtime", "1ms", "-k", "8"}, &b); err != nil {
		t.Fatalf("generous baseline flagged a regression: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "no regressions") {
		t.Errorf("output missing compare summary:\n%s", b.String())
	}

	// A baseline no real machine can meet: the gate must trip.
	b.Reset()
	err := run([]string{"-compare", writeBaseline(1e-6), "-benchtime", "1ms", "-k", "8"}, &b)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("impossible baseline not flagged: err=%v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "regression:") {
		t.Errorf("output missing per-cell regression lines:\n%s", b.String())
	}
}

// TestCompareReadsBaselineBeforeWrite refreshes -out while comparing
// against the same path: the old file must serve as the baseline.
func TestCompareReadsBaselineBeforeWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	rep := Report{Schema: Schema, Results: []Result{
		{Op: "Router", D: 2, K: 8, NsPerOp: 1e12, AllocsPerOp: 1 << 20},
	}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-compare", path, "-out", path, "-benchtime", "1ms", "-k", "8"}, &b); err != nil {
		t.Fatalf("refresh-and-compare: %v\n%s", err, b.String())
	}
	// The file now holds the fresh (real) measurements, not the fake.
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(fresh, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 8 || got.Results[0].NsPerOp == 1e12 {
		t.Errorf("refreshed report not rewritten: %+v", got)
	}
}

// TestCompareSchemaMismatch rejects gating one suite against the
// other's baseline.
func TestCompareSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{"schema":"dbbench/network/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-compare", path, "-k", "8"}, &b); err == nil {
		t.Error("core suite accepted a network baseline")
	}
}
