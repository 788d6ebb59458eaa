package experiments

import (
	"strings"
	"testing"
)

// TestChaosRunSmall sweeps the E24 grid at a reduced volume and
// requires every row — the adversarial schedules and the churn storm
// included — to conserve.
func TestChaosRunSmall(t *testing.T) {
	rows, err := ChaosRun(ChaosRunConfig{Requests: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 4 shapes × 5 schedules, then the storm.
	if want := 4*5 + 1; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.Conserved {
			t.Errorf("cell %s/%s not conserved: %+v", r.Shape, r.Schedule, r)
		}
		if r.Sent == 0 {
			t.Errorf("cell %s/%s served nothing", r.Shape, r.Schedule)
		}
	}
	last := rows[len(rows)-1]
	if last.Shape != "churn-storm" {
		t.Fatalf("final row is %q, want the churn storm", last.Shape)
	}
	if last.Errs != 0 {
		t.Errorf("storm cost %d requests on protected driver nodes", last.Errs)
	}
}

// TestChaosTableShape pins the E24 render.
func TestChaosTableShape(t *testing.T) {
	tab, err := ChaosTable(ChaosRunConfig{Requests: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if out == "" {
		t.Fatal("empty table render")
	}
	for _, col := range []string{"shape", "schedule", "conserved", "churn-storm", "clean", "latency-jitter", "sever"} {
		if !strings.Contains(out, col) {
			t.Fatalf("table missing %q:\n%s", col, out)
		}
	}
}
