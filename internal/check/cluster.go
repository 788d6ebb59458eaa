package check

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// ClusterOptions parameterizes the cluster conservation oracle.
type ClusterOptions struct {
	// Seed drives node identifiers and workloads.
	Seed int64
	// Queries per scenario (0 means 600).
	Queries int
	// MaxFindings caps the findings per report (0 means 32).
	MaxFindings int
}

// Cluster boots seeded in-memory clusters — real nodes, real wire
// frames, channel-link transport — and re-derives the cluster-wide
// conservation laws the package documents:
//
//	per node and in sum:  sent = answered + degraded + shed + forwarded,
//	hop-by-hop, quiesced: Σ forwarded = Σ forwarded_in,
//	under churn:          Σ forwarded ≤ Σ forwarded_in,
//
// plus the serving contract around them: a cluster answers exactly
// what a single node answers (differential sample), forwards follow
// the Koorde fabric within the identifier-length hop bound, and a
// mid-run crash plus join loses no request — every client call still
// resolves to exactly one outcome.
//
// The identifier space is fixed at DG(2,10): cluster behavior does
// not vary with the query graph, so unlike the other modes this
// oracle runs once, not per (d,k).
func Cluster(opt ClusterOptions) (Report, error) {
	const idLen = 10
	rep := Report{Mode: "cluster", D: 2, K: idLen}
	if opt.Queries <= 0 {
		opt.Queries = 600
	}
	f := newFindings(opt.MaxFindings)
	cs := &clusterScan{opt: opt, idLen: idLen, f: f}
	for _, unit := range []func() error{cs.steady, cs.differential, cs.churn} {
		if err := unit(); err != nil {
			return rep, err
		}
		if f.full() {
			break
		}
	}
	rep.Checked = cs.checked
	rep.Findings = f.result()
	rep.Truncated = f.full()
	return rep, nil
}

type clusterScan struct {
	opt     ClusterOptions
	idLen   int
	f       *findings
	checked int
}

func (cs *clusterScan) assert(ok bool, format string, args ...any) {
	cs.checked++
	if !ok {
		cs.f.addf("cluster-conservation", format, args...)
	}
}

// harness boots a converged in-memory cluster for one scenario.
func (cs *clusterScan) harness(scenario string, nodes, replication int) (*cluster.Harness, error) {
	return cluster.NewHarness(cluster.HarnessConfig{
		Nodes:       nodes,
		Seed:        nameSeed(cs.opt.Seed, scenario),
		IDLen:       cs.idLen,
		Replication: replication,
		Serve: serve.Config{
			Shards: 4, QueueDepth: 512, CacheSize: 512,
			DefaultDeadline: 5 * time.Second,
		},
	})
}

// queries yields the scenario's seeded stream of n scalar requests
// over DG(2,5).
func (cs *clusterScan) queries(scenario string, n int) []serve.Request {
	return cluster.Queries(nameSeed(cs.opt.Seed, scenario+"/load"), 5, n, true)
}

// steady drives a failure-free cluster and checks the exact
// identities after quiescing.
func (cs *clusterScan) steady() error {
	h, err := cs.harness("steady", 4, 1)
	if err != nil {
		return fmt.Errorf("check: cluster steady: %w", err)
	}
	defer h.Close()
	c, err := h.Client(0)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	for _, req := range cs.queries("steady", cs.opt.Queries) {
		resp, err := c.Do(ctx, req)
		if err != nil {
			return fmt.Errorf("check: cluster steady: %w", err)
		}
		cs.assert(resp.Status == serve.StatusOK, "steady: %s %s→%s answered %q (%s%s)",
			req.Kind, req.Src, req.Dst, resp.Status, resp.ShedReason, resp.Error)
		if cs.f.full() {
			return nil
		}
	}
	agg := h.Counts()
	for i, per := range agg.PerNode {
		cs.assert(per.Conserved(), "steady: node %d identity broken: %+v", i, per)
	}
	cs.assert(agg.Conserved(), "steady: cluster identity broken: %+v", agg)
	cs.assert(agg.HopConserved(), "steady: forwarded %d ≠ forwarded_in %d in a quiesced failure-free run",
		agg.Forwarded, agg.ForwardedIn)
	cs.assert(agg.Forwarded > 0, "steady: nothing rode the fabric; the scenario proved nothing")
	var hopSum, hopCount int64
	for _, n := range h.Live() {
		s, c := n.ForwardHopStats()
		hopSum, hopCount = hopSum+s, hopCount+c
	}
	if hopCount > 0 {
		mean := float64(hopSum) / float64(hopCount)
		cs.assert(mean <= float64(cs.idLen), "steady: mean forward hops %.2f exceeds identifier length %d",
			mean, cs.idLen)
	}
	return nil
}

// differential compares a sample of cluster answers against a
// single-node server.
func (cs *clusterScan) differential() error {
	h, err := cs.harness("differential", 3, 1)
	if err != nil {
		return fmt.Errorf("check: cluster differential: %w", err)
	}
	defer h.Close()
	single := serve.NewServer(serve.Config{Shards: 2, QueueDepth: 512, CacheSize: 512, DefaultDeadline: 5 * time.Second})
	defer single.Close()
	oracle, err := single.SelfClient()
	if err != nil {
		return err
	}
	defer oracle.Close()
	c, err := h.Client(0)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	canon := func(r serve.Response) string {
		return fmt.Sprintf("%s|%s|%d|%v|%s|%v|%v|%s|%s",
			r.Status, r.Degrade, r.Distance, r.Path, r.NextHop, r.Done, r.Bounds, r.ShedReason, r.Error)
	}
	for _, req := range cs.queries("differential", cs.opt.Queries/2) {
		want, err := oracle.Do(ctx, req)
		if err != nil {
			return err
		}
		got, err := c.Do(ctx, req)
		if err != nil {
			return err
		}
		cs.assert(canon(got) == canon(want), "differential: %s %s %s→%s: cluster %s, single %s",
			req.Kind, req.Mode, req.Src, req.Dst, canon(got), canon(want))
		if cs.f.full() {
			return nil
		}
	}
	return nil
}

// churn drives load through a crash and a join and checks that the
// identities still balance exactly and no request is lost.
func (cs *clusterScan) churn() error {
	h, err := cs.harness("churn", 5, 2)
	if err != nil {
		return fmt.Errorf("check: cluster churn: %w", err)
	}
	defer h.Close()
	var killed serve.Counts
	drivers := spread(cs.queries("churn", cs.opt.Queries), 0, 1, 0, 1)
	res, err := h.Drive(drivers, func() error {
		var err error
		if killed, err = h.Kill(4); err != nil {
			return err
		}
		_, err = h.Join()
		return err
	})
	if err != nil {
		return fmt.Errorf("check: cluster churn: %w", err)
	}
	cs.assert(killed.Conserved(), "churn: killed node identity broken: %+v", killed)
	agg := h.Counts(killed)
	for i, p := range agg.PerNode {
		cs.assert(p.Conserved(), "churn: node %d identity broken: %+v", i, p)
	}
	cs.assert(agg.Conserved(), "churn: cluster identity broken: %+v", agg)
	cs.assert(agg.Forwarded <= agg.ForwardedIn,
		"churn: more forwarded outcomes (%d) than admitted forwards (%d)", agg.Forwarded, agg.ForwardedIn)
	t, want := cluster.Total(res), len(drivers)*len(drivers[0].Reqs)
	cs.assert(t.OK == want, "churn: %d responses for %d requests (first error: %v)", t.OK, want, t.FirstErr)
	return nil
}
