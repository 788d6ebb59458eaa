package network

import (
	"testing"

	"repro/internal/word"
)

func TestContentionSingleMessageLatencyIsDistance(t *testing.T) {
	c, err := NewContention(ContentionConfig{D: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := word.MustParse(2, "0000")
	dst := word.MustParse(2, "0111")
	if err := c.Add(src, dst); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 || res.MeanSlowdown != 1 {
		t.Errorf("res = %+v", res)
	}
	// Uncontended latency equals the hop count.
	if res.MaxLatency != 3 {
		t.Errorf("latency %d, want 3", res.MaxLatency)
	}
}

func TestContentionSelfMessage(t *testing.T) {
	c, err := NewContention(ContentionConfig{D: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := word.MustParse(2, "010")
	if err := c.Add(x, x); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLatency != 0 || res.Rounds != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Two messages over the same single link: capacity 1 forces the
	// second to wait one round.
	c, err := NewContention(ContentionConfig{D: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := word.MustParse(2, "000")
	dst := word.MustParse(2, "001")
	if err := c.Add(src, dst); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(src, dst); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || res.MaxLatency != 2 || res.MaxQueue != 2 {
		t.Errorf("res = %+v", res)
	}
	// Capacity 2 clears both in one round.
	c2, err := NewContention(ContentionConfig{D: 2, K: 3, LinkCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = c2.Add(src, dst)
	_ = c2.Add(src, dst)
	res2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rounds != 1 {
		t.Errorf("capacity-2 res = %+v", res2)
	}
}

func TestContentionDeterministic(t *testing.T) {
	run := func() ContentionResult {
		c, err := NewContention(ContentionConfig{D: 2, K: 6, Seed: 5, Policy: PolicyRandom{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddUniform(400); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestContentionLatencyAtLeastHops(t *testing.T) {
	c, err := NewContention(ContentionConfig{D: 2, K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddUniform(300); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanSlowdown < 1 {
		t.Errorf("slowdown %v below 1", res.MeanSlowdown)
	}
	if res.P95Latency > res.MaxLatency || res.MeanLatency > float64(res.MaxLatency) {
		t.Errorf("latency stats inconsistent: %+v", res)
	}
}

func TestContentionBalancedPolicyHelpsUnderLoad(t *testing.T) {
	// With heavy uniform load, planning wildcards least-loaded must
	// not be worse than always-first on planned max link load, and
	// should improve mean latency.
	run := func(p Policy) (int, float64) {
		c, err := NewContention(ContentionConfig{D: 2, K: 6, Seed: 11, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddUniform(1500); err != nil {
			t.Fatal(err)
		}
		plannedMax := c.PlannedMaxLinkLoad()
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return plannedMax, res.MeanLatency
	}
	firstMax, firstLatency := run(PolicyFirst{})
	llMax, llLatency := run(PolicyLeastLoaded{})
	if llMax > firstMax {
		t.Errorf("least-loaded planned max %d above first %d", llMax, firstMax)
	}
	if llLatency > firstLatency {
		t.Errorf("least-loaded latency %v above first %v", llLatency, firstLatency)
	}
}

func TestContentionUnidirectional(t *testing.T) {
	c, err := NewContention(ContentionConfig{D: 2, K: 4, Unidirectional: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddUniform(100); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 100 || res.MeanSlowdown < 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestContentionValidates(t *testing.T) {
	if _, err := NewContention(ContentionConfig{D: 1, K: 3}); err == nil {
		t.Error("accepted d=1")
	}
	if _, err := NewContention(ContentionConfig{D: 2, K: 3, LinkCapacity: -1}); err == nil {
		t.Error("accepted negative capacity")
	}
	c, err := NewContention(ContentionConfig{D: 2, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(word.MustParse(2, "01"), word.MustParse(2, "010")); err == nil {
		t.Error("accepted short source")
	}
	if err := c.AddUniform(0); err == nil {
		t.Error("accepted zero messages")
	}
	empty, err := c.Run()
	if err != nil || empty.Messages != 0 {
		t.Errorf("empty run: %+v, %v", empty, err)
	}
}

func TestContentionRoundBudget(t *testing.T) {
	c, err := NewContention(ContentionConfig{D: 2, K: 4, MaxRounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddUniform(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("round budget not enforced")
	}
}
