package network

import (
	"testing"

	"repro/internal/word"
)

func TestTreeBroadcastReachesAllEfficiently(t *testing.T) {
	for _, cfg := range []Config{
		{D: 2, K: 5},
		{D: 2, K: 5, Unidirectional: true},
		{D: 3, K: 3},
	} {
		n := mustNet(t, cfg)
		src := word.MustParse(cfg.D, mustZeroString(cfg.K))
		res, err := n.TreeBroadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached != n.NumSites() {
			t.Errorf("cfg %+v: reached %d of %d", cfg, res.Reached, n.NumSites())
		}
		if res.Messages != n.NumSites()-1 {
			t.Errorf("cfg %+v: %d messages, want N-1 = %d", cfg, res.Messages, n.NumSites()-1)
		}
		if res.Rounds > cfg.K || res.Rounds < 1 {
			t.Errorf("cfg %+v: %d rounds (diameter %d)", cfg, res.Rounds, cfg.K)
		}
	}
}

func TestFloodBroadcastReachesAllExpensively(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 5})
	src := word.MustParse(2, "00000")
	flood, err := n.FloodBroadcast(src)
	if err != nil {
		t.Fatal(err)
	}
	if flood.Reached != 32 {
		t.Errorf("flood reached %d", flood.Reached)
	}
	n.ResetStats()
	tree, err := n.TreeBroadcast(src)
	if err != nil {
		t.Fatal(err)
	}
	if flood.Messages <= tree.Messages {
		t.Errorf("flood %d messages not above tree %d", flood.Messages, tree.Messages)
	}
	if flood.Rounds != tree.Rounds {
		t.Errorf("flood rounds %d != tree rounds %d (both are BFS depth)", flood.Rounds, tree.Rounds)
	}
}

func TestBroadcastWithFailures(t *testing.T) {
	n := mustNet(t, Config{D: 2, K: 4})
	if err := n.FailSite(word.MustParse(2, "1111")); err != nil {
		t.Fatal(err)
	}
	src := word.MustParse(2, "0000")
	res, err := n.TreeBroadcast(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 15 {
		t.Errorf("reached %d, want 15 (one failed site)", res.Reached)
	}
	if err := n.FailSite(src); err != nil {
		t.Fatal(err)
	}
	if _, err := n.TreeBroadcast(src); err == nil {
		t.Error("broadcast from failed source succeeded")
	}
	if _, err := n.FloodBroadcast(src); err == nil {
		t.Error("flood from failed source succeeded")
	}
}

func mustZeroString(k int) string {
	s := make([]byte, k)
	for i := range s {
		s[i] = '0'
	}
	return string(s)
}
