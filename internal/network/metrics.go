package network

import (
	"repro/internal/obs"
)

// Drop reasons. Delivery.DropReason always holds one of these stable
// codes (Delivery.DropDetail carries the free-form context), and the
// registry counts one dn_drops_total{reason=...} series per code, so
// sent = delivered + Σ drops-by-reason holds exactly.
const (
	// DropSourceFailed: the message was injected at a failed site.
	DropSourceFailed = "source failed"
	// DropRouteExhausted: the routing-path field emptied away from the
	// destination.
	DropRouteExhausted = "route exhausted"
	// DropTTLExceeded: the hop budget (Config.TTL; 0 means 4k) ran out.
	DropTTLExceeded = "ttl exceeded"
	// DropSiteFailed: the next site is failed and the engine is not
	// adaptive.
	DropSiteFailed = "next site failed"
	// DropNoReroute: adaptive mode found no failure-avoiding route.
	DropNoReroute = "no reroute"
	// DropTypeRUnidirectional: a type-R hop in a uni-directional
	// network.
	DropTypeRUnidirectional = "type-R in uni-directional"
)

// Registry metric names of the engine. Documented in README.md
// § Observability.
const (
	metricSent         = "dn_messages_sent_total"
	metricDelivered    = "dn_messages_delivered_total"
	metricDropped      = "dn_messages_dropped_total"
	metricDrops        = "dn_drops_total" // labelled by reason
	metricLinksCrossed = "dn_links_crossed_total"
	metricReroutes     = "dn_reroutes_total"
	metricHops         = "dn_hops"
	metricRouteNs      = "dn_route_ns"
	metricLinkGini     = "dn_link_load_gini"
	metricFailedSites  = "dn_failed_sites"
	metricFaultInject  = "dn_fault_injections_total"
)

var dropReasons = []string{
	DropSourceFailed, DropRouteExhausted, DropTTLExceeded,
	DropSiteFailed, DropNoReroute, DropTypeRUnidirectional,
}

// engineMetrics are the pre-resolved message-accounting handles.
// Built once at construction; with a nil registry every handle is nil
// and each call degrades to a single nil check, keeping the disabled
// overhead on the forwarding hot path within noise.
type engineMetrics struct {
	sent, delivered, dropped *obs.Counter
	linksCrossed, reroutes   *obs.Counter
	dropBy                   map[string]*obs.Counter
	hops                     *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	m := engineMetrics{
		sent:         reg.Counter(metricSent),
		delivered:    reg.Counter(metricDelivered),
		dropped:      reg.Counter(metricDropped),
		linksCrossed: reg.Counter(metricLinksCrossed),
		reroutes:     reg.Counter(metricReroutes),
		hops:         reg.Histogram(metricHops, obs.HopBuckets),
	}
	if reg != nil {
		m.dropBy = make(map[string]*obs.Counter, len(dropReasons))
		for _, r := range dropReasons {
			m.dropBy[r] = reg.Counter(obs.Label(metricDrops, "reason", r))
		}
	}
	return m
}

// countDrop increments the aggregate and the per-reason drop counters.
func (m *engineMetrics) countDrop(reason string) {
	m.dropped.Inc()
	if c := m.dropBy[reason]; c != nil {
		c.Inc()
	}
}
