package network

import (
	"testing"

	"repro/internal/word"
)

// TestContentionRunPinned pins Contention.Run to golden values:
// undirected and unidirectional links, capacities 1 and 2, and every
// planning policy. TestContentionDeterministic only compares a run
// with itself; this catches a refactor of the round loop or the
// planner that changes behaviour. A shortest walk never revisits a
// site, so no wildcard resolution crosses a self-loop link; the
// explicit cases route from, to and through the constant words whose
// shift neighbours include themselves.
func TestContentionRunPinned(t *testing.T) {
	cases := []struct {
		name           string
		d, k           int
		unidirectional bool
		capacity       int
		policy         Policy
		seed           int64
		uniform        int
		pairs          [][2]string
		planned        int
		want           ContentionResult
	}{
		{"first-cap1", 2, 6, false, 1, PolicyFirst{}, 1, 400, nil, 14, ContentionResult{Messages: 400, Rounds: 15, MeanLatency: 6.605, P95Latency: 12, MaxLatency: 15, MeanSlowdown: 1.9249583333333333, MaxQueue: 8}},
		{"random-cap2", 2, 6, false, 2, PolicyRandom{}, 7, 400, nil, 17, ContentionResult{Messages: 400, Rounds: 9, MeanLatency: 4.28, P95Latency: 7, MaxLatency: 9, MeanSlowdown: 1.273625000000001, MaxQueue: 8}},
		{"least-loaded-cap1", 2, 6, false, 1, PolicyLeastLoaded{}, 3, 1000, nil, 29, ContentionResult{Messages: 1000, Rounds: 30, MeanLatency: 12.216, P95Latency: 22, MaxLatency: 30, MeanSlowdown: 3.507066666666669, MaxQueue: 16}},
		{"least-loaded-d3", 3, 4, false, 1, PolicyLeastLoaded{}, 5, 600, nil, 10, ContentionResult{Messages: 600, Rounds: 12, MeanLatency: 4.4783333333333335, P95Latency: 8, MaxLatency: 12, MeanSlowdown: 1.613611111111108, MaxQueue: 6}},
		{"uni-first-cap1", 2, 5, true, 1, PolicyFirst{}, 2, 300, nil, 34, ContentionResult{Messages: 300, Rounds: 34, MeanLatency: 12.783333333333333, P95Latency: 25, MaxLatency: 34, MeanSlowdown: 3.735888888888888, MaxQueue: 14}},
		{"uni-least-loaded-cap2", 3, 4, true, 2, PolicyLeastLoaded{}, 4, 500, nil, 16, ContentionResult{Messages: 500, Rounds: 9, MeanLatency: 4.612, P95Latency: 7, MaxLatency: 9, MeanSlowdown: 1.378000000000002, MaxQueue: 8}},
		{"constant-words", 2, 4, false, 1, PolicyLeastLoaded{}, 9, 60, [][2]string{
			{"0000", "1111"}, {"1111", "0000"}, {"0000", "0101"}, {"0101", "0000"},
			{"1000", "0001"}, {"0001", "1000"}, {"1110", "0111"}, {"0000", "0000"},
		}, 7, ContentionResult{Messages: 68, Rounds: 9, MeanLatency: 3.1029411764705883, P95Latency: 7, MaxLatency: 9, MeanSlowdown: 1.4975490196078436, MaxQueue: 6}},
	}
	for _, c := range cases {
		sim, err := NewContention(ContentionConfig{D: c.d, K: c.k, Unidirectional: c.unidirectional,
			LinkCapacity: c.capacity, Policy: c.policy, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.pairs {
			if err := sim.Add(word.MustParse(c.d, p[0]), word.MustParse(c.d, p[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.AddUniform(c.uniform); err != nil {
			t.Fatal(err)
		}
		planned := sim.PlannedMaxLinkLoad()
		got, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want || planned != c.planned {
			t.Errorf("%s:\n got %#v planned %d\nwant %#v planned %d", c.name, got, planned, c.want, c.planned)
		}
	}
}

// TestRunOpenLoopPinned pins RunOpenLoop to golden values across
// offered loads, both capacities and a saturating run.
func TestRunOpenLoopPinned(t *testing.T) {
	cases := []struct {
		cfg  OpenLoopConfig
		want OpenLoopResult
	}{
		{OpenLoopConfig{D: 2, K: 6, Rate: 0.05, Rounds: 40, Seed: 1}, OpenLoopResult{Offered: 116, Delivered: 116, MeanLatency: 3.5086206896551726, P95Latency: 5, MaxLatency: 6, MeanSlowdown: 1.0102011494252874}},
		{OpenLoopConfig{D: 2, K: 6, Rate: 0.3, Rounds: 40, Seed: 7}, OpenLoopResult{Offered: 761, Delivered: 761, MeanLatency: 3.838370565045992, P95Latency: 6, MaxLatency: 8, MeanSlowdown: 1.145860709592642}},
		{OpenLoopConfig{D: 2, K: 6, Rate: 0.9, Rounds: 40, Seed: 1}, OpenLoopResult{Offered: 2321, Delivered: 2321, MeanLatency: 9.105557949159845, P95Latency: 21, MaxLatency: 34, MeanSlowdown: 2.6032959931064177}},
		{OpenLoopConfig{D: 2, K: 6, Rate: 0.6, Rounds: 40, LinkCapacity: 2, Seed: 7}, OpenLoopResult{Offered: 1524, Delivered: 1524, MeanLatency: 3.468503937007874, P95Latency: 5, MaxLatency: 7, MeanSlowdown: 1.0293744531933509}},
		{OpenLoopConfig{D: 3, K: 3, Rate: 0.2, Rounds: 60, Seed: 3}, OpenLoopResult{Offered: 302, Delivered: 302, MeanLatency: 2.019867549668874, P95Latency: 3, MaxLatency: 4, MeanSlowdown: 1.022075055187638}},
		{OpenLoopConfig{D: 2, K: 5, Rate: 0.9, Rounds: 60, MaxRounds: 70, Seed: 2}, OpenLoopResult{Offered: 1729, Delivered: 1715, MeanLatency: 5.5644314868804665, P95Latency: 12, MaxLatency: 28, MeanSlowdown: 1.9947230320699723, Saturated: true}},
	}
	for _, c := range cases {
		got, err := RunOpenLoop(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%+v:\n got %#v\nwant %#v", c.cfg, got, c.want)
		}
	}
}
