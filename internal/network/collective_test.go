package network

import (
	"testing"

	"repro/internal/word"
)

func allValues(t *testing.T, d, k int) map[string]int {
	t.Helper()
	values := make(map[string]int)
	i := 0
	if _, err := word.ForEach(d, k, func(w word.Word) bool {
		values[w.String()] = i
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return values
}

func TestReduceSumsEverySite(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 5})
	values := allValues(t, 2, 5)
	wantSum := 0
	for _, v := range values {
		wantSum += v
	}
	root := word.MustParse(2, "01010")
	got, res, err := n.Reduce(root, values, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got != wantSum {
		t.Errorf("reduce sum = %d, want %d", got, wantSum)
	}
	if res.Participants != 32 {
		t.Errorf("participants = %d", res.Participants)
	}
	if res.Messages != 31 {
		t.Errorf("messages = %d, want N-1", res.Messages)
	}
	if res.Rounds < 1 || res.Rounds > 5 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

func TestReduceMax(t *testing.T) {
	n := mustNet(t, Config{D: 3, K: 2})
	values := allValues(t, 3, 2)
	root := word.MustParse(3, "00")
	got, _, err := n.Reduce(root, values, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Errorf("reduce max = %d, want 8", got)
	}
}

func TestReducePartialParticipation(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	values := map[string]int{"000": 5, "111": 7}
	got, res, err := n.Reduce(word.MustParse(2, "010"), values, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 || res.Participants != 2 {
		t.Errorf("got %d participants %d", got, res.Participants)
	}
}

func TestReduceWithFailures(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 4})
	if err := n.FailSite(word.MustParse(2, "1111")); err != nil {
		t.Fatal(err)
	}
	values := allValues(t, 2, 4)
	root := word.MustParse(2, "0000")
	got, res, err := n.Reduce(root, values, func(a, b int) int { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	// The failed site's value (15) must be missing.
	wantSum := 0
	for i := 0; i < 16; i++ {
		wantSum += i
	}
	wantSum -= 15
	if got != wantSum || res.Participants != 15 {
		t.Errorf("sum %d participants %d", got, res.Participants)
	}
	if err := n.FailSite(root); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Reduce(root, values, func(a, b int) int { return a + b }); err == nil {
		t.Error("reduce accepted failed root")
	}
}

func TestReduceValidates(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 3})
	if _, _, err := n.Reduce(word.MustParse(2, "000"), nil, nil); err == nil {
		t.Error("accepted nil combine")
	}
	if _, _, err := n.Reduce(word.MustParse(2, "00"), map[string]int{}, func(a, b int) int { return a }); err == nil {
		t.Error("accepted short root")
	}
	if _, _, err := n.Reduce(word.MustParse(2, "000"), map[string]int{}, func(a, b int) int { return a }); err == nil {
		t.Error("accepted empty values (no root value)")
	}
}
