package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// ClusterRow is one node of experiment E23: a seeded closed-loop
// workload replayed against a multi-node cluster, every request sent
// to a node chosen round-robin, so misses ride the de Bruijn fabric.
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

// ClusterRunConfig shapes the E23 replay. Zero values default to a
// CI-sized run: 4 nodes at R=2 on a DG(2,10) identifier space, four
// worker shards behind a bounded queue per node (a forward parks a
// worker for a round trip, so single-shard nodes collapse), driven
// closed-loop hard enough that the admission path is exercised, not
// just the kernels.
type ClusterRunConfig struct {
	Nodes             int   // default 4
	Replication       int   // default 2
	IDLen             int   // identifier length, default 10
	ClientsPerNode    int   // default 4
	RequestsPerClient int   // default 150
	QueueDepth        int   // per-node admission queue, default 64
	DeadlineMS        int64 // per-request budget, default 250
	Seed              int64
}

// ClusterSummary aggregates the run: the client-observed p99 across
// every request and the fabric-wide mean forward hop count.
type ClusterSummary struct {
	ClientP99MS float64
	MeanHops    float64
}

// ClusterRun boots an in-memory cluster and replays the workload.
// The returned rows are per node, in join order; the aggregate
// conservation identity over them is checked here (a broken identity
// is an error, not a data point).
func ClusterRun(cfg ClusterRunConfig) ([]ClusterRow, ClusterSummary, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Replication == 0 {
		cfg.Replication = 2
	}
	if cfg.IDLen == 0 {
		cfg.IDLen = 10
	}
	if cfg.ClientsPerNode == 0 {
		cfg.ClientsPerNode = 4
	}
	if cfg.RequestsPerClient == 0 {
		cfg.RequestsPerClient = 150
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DeadlineMS == 0 {
		cfg.DeadlineMS = 250
	}
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:       cfg.Nodes,
		Seed:        cfg.Seed,
		IDLen:       cfg.IDLen,
		Replication: cfg.Replication,
		Serve: serve.Config{
			Shards:          4,
			QueueDepth:      cfg.QueueDepth,
			CacheSize:       512,
			DefaultDeadline: time.Duration(cfg.DeadlineMS) * time.Millisecond,
		},
	})
	if err != nil {
		return nil, ClusterSummary{}, err
	}
	defer h.Close()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    []time.Duration
		workErr error
	)
	for i := 0; i < cfg.Nodes; i++ {
		for j := 0; j < cfg.ClientsPerNode; j++ {
			c, err := h.Client(i)
			if err != nil {
				return nil, ClusterSummary{}, err
			}
			wg.Add(1)
			go func(i, j int, c *serve.Client) {
				defer wg.Done()
				defer c.Close()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*131 + int64(j)))
				local := make([]time.Duration, 0, cfg.RequestsPerClient)
				for r := 0; r < cfg.RequestsPerClient; r++ {
					src := word.Random(2, 10, rng)
					dst := word.Random(2, 10, rng)
					var req serve.Request
					switch r % 3 {
					case 0:
						req = serve.DistanceRequest(src, dst, serve.Undirected)
					case 1:
						req = serve.RouteRequest(src, dst, serve.Undirected)
					default:
						req = serve.NextHopRequest(src, dst, serve.Undirected)
					}
					start := time.Now()
					if _, err := c.Do(context.Background(), req); err != nil {
						mu.Lock()
						workErr = err
						mu.Unlock()
						return
					}
					local = append(local, time.Since(start))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}(i, j, c)
		}
	}
	wg.Wait()
	if workErr != nil {
		return nil, ClusterSummary{}, workErr
	}

	var rows []ClusterRow
	agg := h.Counts()
	if !agg.Conserved() {
		return nil, ClusterSummary{}, fmt.Errorf("experiments: cluster conservation broken: %+v", agg)
	}
	var totalHopSum, totalHopCount int64
	for i := 0; i < cfg.Nodes; i++ {
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
		ClientP99MS: float64(serve.Percentile(lats, 0.99)) / float64(time.Millisecond),
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
