package main

import (
	"strings"
	"testing"
)

func TestSummary(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-d", "2", "-k", "3", "-undirected"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"vertices: 8", "edges:    13", "diameter: 3", "2×deg3", "connected: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDOTFormat(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-d", "2", "-k", "3", "-format", "dot"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "digraph") || !strings.Contains(b.String(), `"010"`) {
		t.Errorf("dot output:\n%s", b.String())
	}
}

func TestAdjFormat(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-d", "2", "-k", "3", "-format", "adj"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "010: 100 101") {
		t.Errorf("adjacency output:\n%s", b.String())
	}
}

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-format", "nope"}, &b); err == nil {
		t.Error("accepted unknown format")
	}
	if err := run([]string{"-d", "1"}, &b); err == nil {
		t.Error("accepted d=1")
	}
	if err := run([]string{"-d", "2", "-k", "64"}, &b); err == nil {
		t.Error("accepted overflowing graph")
	}
}

// TestSummaryRefusesLargeGraphs checks that the summary refuses a graph
// past its vertex limit before building it, with an error naming the
// size, while the linear formats still render that graph.
func TestSummaryRefusesLargeGraphs(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-d", "2", "-k", "15"}, &b)
	if err == nil || !strings.Contains(err.Error(), "32768 vertices") {
		t.Fatalf("summary of DG(2,15): err = %v, want a refusal naming 32768 vertices", err)
	}
	if b.Len() != 0 {
		t.Fatalf("refused summary wrote output:\n%s", b.String())
	}
	if err := run([]string{"-d", "2", "-k", "15", "-format", "adj"}, &b); err != nil {
		t.Fatalf("adjacency of DG(2,15): %v", err)
	}
}
