package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ClusterRow is one node of experiment E23: a seeded closed-loop
// workload replayed against a multi-node cluster, every client sending
// only to its home node, so misses ride the de Bruijn fabric.
// HopsMean is the mean inter-node hop count of the forwarded queries
// this node answered; P99MS is the node's admission-to-answer p99.
type ClusterRow struct {
	Node        string
	Sent        int64
	Answered    int64
	Forwarded   int64
	ForwardedIn int64
	Shed        int64
	HopsMean    float64
	P99MS       float64
}

// ClusterRunConfig shapes the E23 replay.
type ClusterRunConfig struct {
	Seed int64
}

// clusterNodes is E23's node count. The replay runs them at R=2 on a
// DG(2,10) identifier space, four worker shards behind a 64-deep
// queue per node (a forward parks a worker for a round trip, so
// single-shard nodes collapse), driven closed-loop by 4 clients per
// node of 150 requests each under a 250 ms budget — hard enough that
// the admission path is exercised, not just the kernels.
const clusterNodes = 4

// ClusterSummary aggregates the run: the client-observed p99 across
// every request and the fabric-wide mean forward hop count.
type ClusterSummary struct {
	ClientP99MS float64
	MeanHops    float64
}

// ClusterRun boots an in-memory cluster and replays the workload.
// The returned rows are per node, in join order. A failed request or
// a broken aggregate identity — the outcome identity, or the hop
// identity in its ≤-form — is an error, not a data point.
func ClusterRun(cfg ClusterRunConfig) ([]ClusterRow, ClusterSummary, error) {
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:       clusterNodes,
		Seed:        cfg.Seed,
		IDLen:       10,
		Replication: 2,
		Serve: serve.Config{
			Shards:          4,
			QueueDepth:      64,
			CacheSize:       512,
			DefaultDeadline: 250 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, ClusterSummary{}, err
	}
	defer h.Close()

	var drivers []cluster.Driver
	for i := 0; i < clusterNodes; i++ {
		for j := 0; j < 4; j++ {
			seed := cfg.Seed + int64(i)*131 + int64(j)
			drivers = append(drivers, cluster.Driver{Node: i, Reqs: cluster.Queries(seed, 10, 150, false)})
		}
	}
	res, err := h.Drive(drivers, nil)
	if err != nil {
		return nil, ClusterSummary{}, err
	}
	t := cluster.Total(res)
	if t.Errs > 0 {
		return nil, ClusterSummary{}, fmt.Errorf("experiments: %d cluster requests failed: %w", t.Errs, t.FirstErr)
	}

	// An origin can shed on its deadline after the peer already
	// admitted the forward, so Σ forwarded = Σ forwarded_in holds
	// exactly only in runs that shed nothing.
	agg := h.Counts()
	if !agg.Conserved() || agg.Forwarded > agg.ForwardedIn {
		return nil, ClusterSummary{}, fmt.Errorf("experiments: cluster conservation broken: %+v", agg)
	}
	var rows []ClusterRow
	var totalHopSum, totalHopCount int64
	for i := 0; i < clusterNodes; i++ {
		n := h.Node(i)
		counts := n.Counts()
		hopSum, hopCount := n.ForwardHopStats()
		totalHopSum += hopSum
		totalHopCount += hopCount
		var hopsMean float64
		if hopCount > 0 {
			hopsMean = float64(hopSum) / float64(hopCount)
		}
		p99 := h.Registry(i).Snapshot().Histogram("dn_serve_latency_ns").Quantile(0.99)
		rows = append(rows, ClusterRow{
			Node:        n.ID().String(),
			Sent:        counts.Sent,
			Answered:    counts.Answered,
			Forwarded:   counts.Forwarded,
			ForwardedIn: counts.ForwardedIn,
			Shed:        counts.Shed,
			HopsMean:    hopsMean,
			P99MS:       p99 / float64(time.Millisecond),
		})
	}
	sum := ClusterSummary{
		ClientP99MS: float64(serve.Percentile(t.Lats, 0.99)) / float64(time.Millisecond),
	}
	if totalHopCount > 0 {
		sum.MeanHops = float64(totalHopSum) / float64(totalHopCount)
	}
	return rows, sum, nil
}

// ClusterTable renders E23: one row per node plus a Σ row whose
// hops_mean is the fabric-wide mean and whose p99_ms column is the
// client-observed p99 across every request.
func ClusterTable(cfg ClusterRunConfig) (*stats.Table, error) {
	rows, sum, err := ClusterRun(cfg)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("node", "sent", "answered", "forwarded", "fwd_in", "shed", "hops_mean", "p99_ms")
	var total ClusterRow
	for _, r := range rows {
		t.AddRow(r.Node, r.Sent, r.Answered, r.Forwarded, r.ForwardedIn, r.Shed, r.HopsMean, r.P99MS)
		total.Sent += r.Sent
		total.Answered += r.Answered
		total.Forwarded += r.Forwarded
		total.ForwardedIn += r.ForwardedIn
		total.Shed += r.Shed
	}
	t.AddRow("Σ", total.Sent, total.Answered, total.Forwarded, total.ForwardedIn, total.Shed, sum.MeanHops, sum.ClientP99MS)
	return t, nil
}
