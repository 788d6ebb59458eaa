package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func TestServeLoadSmall(t *testing.T) {
	rows, err := ServeLoad(ServeLoadConfig{
		D: 2, K: 8,
		Duration: 50 * time.Millisecond,
		Seed:     11,
	}, []float64{200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Sent != r.Answered+r.Degraded+r.Shed {
			t.Fatalf("row %+v not conserved", r)
		}
		if r.Sent == 0 {
			t.Fatalf("row %+v sent nothing", r)
		}
	}
}

func TestServeLoadTable(t *testing.T) {
	tab, err := ServeLoadTable(ServeLoadConfig{
		D: 2, K: 8,
		Duration: 50 * time.Millisecond,
	}, []float64{200})
	if err != nil {
		t.Fatal(err)
	}
	if out := tab.String(); out == "" {
		t.Fatal("empty table render")
	}
}

func TestFlightStormFreezes(t *testing.T) {
	snap, err := FlightStorm(ServeLoadConfig{D: 2, K: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Frozen || snap.Trigger == nil {
		t.Fatalf("storm left recorder unfrozen: %+v", snap)
	}
	switch snap.Trigger.Name {
	case serve.TriggerShedSpike, serve.TriggerDegrade, serve.TriggerP99Deadline:
	default:
		t.Fatalf("unexpected trigger %q", snap.Trigger.Name)
	}
	if len(snap.Events) == 0 {
		t.Fatal("frozen postmortem retained no events")
	}
	if snap.Events[len(snap.Events)-1].Kind != obs.FlightTrigger {
		t.Fatalf("trigger not last in postmortem: %+v", snap.Events[len(snap.Events)-1])
	}
}

func TestFlightTableShape(t *testing.T) {
	tab, err := FlightTable(ServeLoadConfig{D: 2, K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if out == "" {
		t.Fatal("empty table render")
	}
	if !strings.Contains(out, "trigger") {
		t.Fatalf("table lacks a trigger row:\n%s", out)
	}
}
