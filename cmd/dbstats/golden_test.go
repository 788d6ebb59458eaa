package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenTables diffs the store-and-forward and deflection tables
// (E7, E14, E16, E18) against their committed output, byte for byte.
// Their figures are seeded, so any change to the simulators' round
// loops, planners or routing that moves a single delivery shows here.
// Regenerate deliberately with go test ./cmd/dbstats -run Golden -update.
func TestGoldenTables(t *testing.T) {
	for _, table := range []string{"policy", "latency", "loadcurve", "deflect"} {
		var b strings.Builder
		if err := run([]string{"-table", table}, &b); err != nil {
			t.Fatalf("table %s: %v", table, err)
		}
		path := filepath.Join("testdata", table+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("table %s differs from %s:\n got:\n%s\nwant:\n%s", table, path, got, want)
		}
	}
}
