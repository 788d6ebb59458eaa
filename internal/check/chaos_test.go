package check

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve"
	"repro/internal/word"
)

// TestChaosOracleClean runs the full adversarial grid at a reduced
// request volume and requires a clean verdict: conservation, honest
// answers and drained goroutines under every shape × schedule cell,
// the chaotic fabric, and the churn storm.
func TestChaosOracleClean(t *testing.T) {
	rep, err := Chaos(ChaosOptions{Seed: 1, Requests: 160})
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	if !rep.OK() {
		for _, f := range rep.Findings {
			t.Errorf("finding: %s", f)
		}
		t.Fatalf("chaos oracle not clean (%d findings, truncated=%v)", len(rep.Findings), rep.Truncated)
	}
	if rep.Mode != "chaos" {
		t.Fatalf("mode %q", rep.Mode)
	}
	// 20 grid cells (4 shapes × 5 schedules) × 7 assertions + fabric
	// (5) + storm (8).
	if want := 20*7 + 5 + 8; rep.Checked != want {
		t.Fatalf("checked %d assertions, want the fixed grid total %d", rep.Checked, want)
	}
}

// TestChaosOracleByteIdentical pins the acceptance criterion directly:
// two runs with the same options marshal to byte-identical verdicts —
// fault timing, load variance and all.
func TestChaosOracleByteIdentical(t *testing.T) {
	a, err := Chaos(ChaosOptions{Seed: 9, Requests: 96})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(ChaosOptions{Seed: 9, Requests: 96})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same options, different verdict bytes:\n%s\n%s", ja, jb)
	}
}

// TestChaosValidatorCatchesLies pins the validator itself: a fabricated
// wrong answer, a degraded cache hit, excluding bounds and a malformed
// status must each be counted.
func TestChaosValidatorCatchesLies(t *testing.T) {
	v := newRespValidator()
	req := serve.DistanceRequest(word.MustParse(2, "00000000"), word.MustParse(2, "11111111"), serve.Undirected)
	q, err := serve.ParseQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := serve.NewEngine(nil).Answer(q, serve.LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	clean := a.Distance

	v.observe(req, serve.Response{Status: serve.StatusOK, Distance: clean})
	if v.wrong != 0 || v.invalid != 0 || v.cachedDegraded != 0 {
		t.Fatalf("honest answer flagged: wrong=%d invalid=%d cached=%d", v.wrong, v.invalid, v.cachedDegraded)
	}
	v.observe(req, serve.Response{Status: serve.StatusOK, Distance: clean + 1})
	if v.wrong != 1 {
		t.Fatalf("wrong distance not caught: wrong=%d", v.wrong)
	}
	v.observe(req, serve.Response{Status: serve.StatusOK, Degrade: "distance", Cached: true, Distance: clean})
	if v.cachedDegraded != 1 {
		t.Fatalf("degraded cache hit not caught: %d", v.cachedDegraded)
	}
	v.observe(req, serve.Response{Status: serve.StatusOK, Degrade: "bounds",
		Bounds: &serve.Bounds{Lo: clean + 1, Hi: clean + 2}})
	if v.wrong != 2 {
		t.Fatalf("excluding bounds not caught: wrong=%d", v.wrong)
	}
	v.observe(req, serve.Response{Status: "bogus"})
	if v.invalid != 1 {
		t.Fatalf("bogus status not caught: %d", v.invalid)
	}
}
