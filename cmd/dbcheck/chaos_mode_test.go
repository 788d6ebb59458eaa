package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunChaosMode pins the graph-independent chaos mode: one report,
// no graph sweep, clean verdict at a reduced per-cell volume.
func TestRunChaosMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "chaos", "-chaos-requests", "96"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var v Verdict
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("verdict is not JSON: %v", err)
	}
	if !v.OK || v.Findings != 0 {
		t.Fatalf("chaos oracle not clean: %+v", v)
	}
	if v.Graphs != 0 || len(v.Reports) != 1 || v.Reports[0].Mode != "chaos" {
		t.Fatalf("want 0 graphs and exactly the chaos report, got %+v", v)
	}
	if v.Reports[0].Checked == 0 {
		t.Fatal("chaos oracle checked nothing")
	}
}

// TestRunChaosRequestsMinimum pins the -chaos-requests floor: a value
// below one request per load client would silently fall back to the
// load generator's default volume, so it is refused up front, naming
// the minimum, before any oracle runs.
func TestRunChaosRequestsMinimum(t *testing.T) {
	for _, n := range []string{"1", "2", "3", "-1"} {
		var out bytes.Buffer
		err := run([]string{"-mode", "chaos", "-chaos-requests", n}, &out)
		if err == nil || !strings.Contains(err.Error(), "at least 4") {
			t.Errorf("-chaos-requests %s: err = %v, want one naming the minimum 4", n, err)
		}
		if out.Len() != 0 {
			t.Errorf("-chaos-requests %s: wrote a verdict before refusing:\n%s", n, out.String())
		}
	}
}
