package cluster

import "repro/internal/obs"

// Cluster metric names (README.md § Observability). Registered with
// Config.Serve.Registry alongside the node's serve metrics, so one
// /metrics scrape shows both layers.
const (
	// metricForwarded counts queries this node proxied to a peer and
	// answered with the peer's reply — the cluster-layer view of the
	// serve forwarded outcome.
	metricForwarded = "dn_cluster_forwarded_total"
	// metricForwardHops is the inter-node hop count of forwarded
	// queries, observed at the node that finally answers. Its mean is
	// the acceptance statistic compared against the Koorde bound.
	metricForwardHops = "dn_cluster_forward_hops"
	// metricFallback counts forwards that failed (peer dead, link
	// severed, walk stuck) and were answered by local compute instead.
	metricFallback = "dn_cluster_fallback_local_total"
	// metricFwdDeadline counts forwards abandoned because the request
	// deadline expired mid-flight (the origin sheds reason deadline).
	metricFwdDeadline = "dn_cluster_forward_deadline_total"
	// Membership churn counters and gauges.
	metricJoins    = "dn_cluster_joins_total"
	metricLeaves   = "dn_cluster_leaves_total"
	metricFailures = "dn_cluster_failures_total"
	metricMembers  = "dn_cluster_members"
	metricVersion  = "dn_cluster_membership_version"
)

// clusterMetrics are one node's pre-resolved instrument handles; all
// nil-safe when the registry is absent.
type clusterMetrics struct {
	forwarded   *obs.Counter
	forwardHops *obs.Histogram
	fallback    *obs.Counter
	fwdDeadline *obs.Counter
	joins       *obs.Counter
	leaves      *obs.Counter
	failures    *obs.Counter
	members     *obs.Gauge
	version     *obs.Gauge
}

func newClusterMetrics(reg *obs.Registry) clusterMetrics {
	return clusterMetrics{
		forwarded:   reg.Counter(metricForwarded),
		forwardHops: reg.Histogram(metricForwardHops, obs.HopBuckets),
		fallback:    reg.Counter(metricFallback),
		fwdDeadline: reg.Counter(metricFwdDeadline),
		joins:       reg.Counter(metricJoins),
		leaves:      reg.Counter(metricLeaves),
		failures:    reg.Counter(metricFailures),
		members:     reg.Gauge(metricMembers),
		version:     reg.Gauge(metricVersion),
	}
}
