package experiments

import (
	"repro/internal/network"
	"repro/internal/stats"
)

// LatencyRow is one point of E14: batch latency under link contention.
type LatencyRow struct {
	Policy       string
	Messages     int
	PlannedMax   int
	Rounds       int
	MeanLatency  float64
	P95Latency   int
	MeanSlowdown float64
}

// Latency sweeps offered load (batch sizes) through the
// store-and-forward contention engine for each wildcard planning
// policy on the bi-directional DN(d,k) with unit link capacity.
func Latency(d, k int, batches []int, seed int64) ([]LatencyRow, error) {
	var rows []LatencyRow
	for _, p := range []network.Policy{network.PolicyFirst{}, network.PolicyRandom{}, network.PolicyLeastLoaded{}} {
		for _, batch := range batches {
			c, err := network.NewContention(network.ContentionConfig{D: d, K: k, Policy: p, Seed: seed})
			if err != nil {
				return nil, err
			}
			if err := c.AddUniform(batch); err != nil {
				return nil, err
			}
			plannedMax := c.PlannedMaxLinkLoad()
			res, err := c.Run()
			if err != nil {
				return nil, err
			}
			rows = append(rows, LatencyRow{
				Policy:       p.Name(),
				Messages:     batch,
				PlannedMax:   plannedMax,
				Rounds:       res.Rounds,
				MeanLatency:  res.MeanLatency,
				P95Latency:   res.P95Latency,
				MeanSlowdown: res.MeanSlowdown,
			})
		}
	}
	return rows, nil
}

// LatencyTable renders E14.
func LatencyTable(d, k int, batches []int, seed int64) (*stats.Table, error) {
	rows, err := Latency(d, k, batches, seed)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("policy", "messages", "plannedMax", "rounds", "meanLatency", "p95", "slowdown")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Messages, r.PlannedMax, r.Rounds, r.MeanLatency, r.P95Latency, r.MeanSlowdown)
	}
	return t, nil
}
