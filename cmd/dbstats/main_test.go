package main

import (
	"flag"
	"strings"
	"testing"
)

func TestSingleTables(t *testing.T) {
	cases := map[string]string{
		"eq5":       "eq(5)",
		"census":    "census",
		"dist":      "distance",
		"moore":     "moore-min",
		"broadcast": "flood msgs",
		"trace":     "trigger",
	}
	for table, marker := range cases {
		var b strings.Builder
		args := []string{"-table", table, "-maxk", "4"}
		if table == "dist" {
			args = append(args, "-d", "2", "-k", "4")
		}
		if err := run(args, &b); err != nil {
			t.Fatalf("table %s: %v", table, err)
		}
		if !strings.Contains(b.String(), marker) {
			t.Errorf("table %s missing %q:\n%s", table, marker, b.String())
		}
	}
}

func TestPolicyTableSmall(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-table", "policy", "-messages", "100"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "least-loaded") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestUnknownTable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-table", "nope"}, &b); err == nil {
		t.Error("accepted unknown table")
	}
}

func TestFig2Small(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-table", "fig2", "-maxk", "3", "-samples", "200"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 2") {
		t.Errorf("output:\n%s", b.String())
	}
}

// TestHelpListsEveryTable fails when a registered table is missing
// from the -table help text.
func TestHelpListsEveryTable(t *testing.T) {
	var o options
	fs := flags(&o)
	var b strings.Builder
	fs.SetOutput(&b)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	for _, tab := range tableList(o) {
		if !strings.Contains(b.String(), tab.name) {
			t.Errorf("-h does not name table %q:\n%s", tab.name, b.String())
		}
	}
}
