package serve

import "repro/internal/obs"

// Serving metric names (README.md § Observability). All registered
// with the Config.Registry; a nil registry degrades every instrument
// to a nil check, per the obs contract.
const (
	metricSent           = "dn_serve_sent_total"         // every admitted frame
	metricForwarded      = "dn_serve_forwarded_total"    // outcomes resolved by a cluster peer
	metricForwardedIn    = "dn_serve_forwarded_in_total" // admitted frames that arrived via a forward
	metricRequests       = "dn_serve_requests_total"     // labelled {kind=...}
	metricAnswered       = "dn_serve_answered_total"     // full-fidelity outcomes
	metricDegraded       = "dn_serve_degraded_total"     // labelled {mode=detour|distance|bounds}
	metricShed           = "dn_serve_shed_total"         // labelled {reason=...}
	metricCacheHits      = "dn_serve_cache_hits_total"
	metricCacheMisses    = "dn_serve_cache_misses_total"
	metricCacheEvictions = "dn_serve_cache_evictions_total"
	metricQueueDepth     = "dn_serve_queue_depth" // gauge: tasks waiting
	metricLatencyNs      = "dn_serve_latency_ns"  // admission → answer
	metricConns          = "dn_serve_conns_total"
	metricSampled        = "dn_serve_traces_sampled_total"  // published ReqTraces
	metricFlightFrozen   = "dn_serve_flight_frozen"         // gauge: 1 after a trigger
	metricTriggers       = "dn_serve_flight_triggers_total" // labelled {trigger=...}, fired + missed
)

// shedReason enumerates the exhaustive, stable set of shed outcomes.
// Every admitted request that is not answered (fully or degraded) is
// shed under exactly one of these, which is what makes the
// sent = answered + degraded + shed accounting exact.
type shedReason uint8

const (
	shedQueueFull  shedReason = iota // admission queue full at enqueue
	shedDeadline                     // deadline expired before compute
	shedCanceled                     // connection gone before compute
	shedBadRequest                   // request failed validation
	shedShutdown                     // server closing, queue drained
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{
	"queue_full", "deadline", "canceled", "bad_request", "shutdown",
}

func (r shedReason) String() string { return shedReasonNames[r] }

// Flight-recorder trigger names, the anomaly vocabulary of the
// monitor loop (and of `dbserve -selfcheck`, which fires
// TriggerConservation on accounting drift). Exported so tools reading
// /debug/flight can match on them.
const (
	// TriggerShedSpike fires when the shed fraction of a monitor window
	// reaches shedSpikeFraction.
	TriggerShedSpike = "shed_spike"
	// TriggerDegrade fires on the first degraded answer — the ladder
	// engaging is an anomaly worth a postmortem even when it works.
	TriggerDegrade = "degrade_engaged"
	// TriggerP99Deadline fires when a monitor window's p99
	// admission→answer latency exceeds the default deadline.
	TriggerP99Deadline = "p99_deadline"
	// TriggerConservation marks a sent ≠ answered+degraded+shed
	// mismatch detected by an external checker.
	TriggerConservation = "conservation_mismatch"
)

// serveMetrics are the pre-resolved instrument handles of one Server.
type serveMetrics struct {
	sent      *obs.Counter
	forwarded *obs.Counter
	fwdIn     *obs.Counter
	requests  [KindBatch + 1]*obs.Counter
	answered  *obs.Counter
	degraded  [LevelBounds + 1]*obs.Counter // LevelFull slot unused
	shed      [numShedReasons]*obs.Counter
	queue     *obs.Gauge
	latencyNs *obs.Histogram
	conns     *obs.Counter
	sampled   *obs.Counter
	frozen    *obs.Gauge

	reg *obs.Registry // trigger counters are labelled on demand
}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	var m serveMetrics
	m.sent = reg.Counter(metricSent)
	m.forwarded = reg.Counter(metricForwarded)
	m.fwdIn = reg.Counter(metricForwardedIn)
	for k := KindDistance; k <= KindBatch; k++ {
		m.requests[k] = reg.Counter(obs.Label(metricRequests, "kind", k.String()))
	}
	m.answered = reg.Counter(metricAnswered)
	for l := LevelDetour; l <= LevelBounds; l++ {
		m.degraded[l] = reg.Counter(obs.Label(metricDegraded, "mode", l.DegradeString()))
	}
	for r := shedReason(0); r < numShedReasons; r++ {
		m.shed[r] = reg.Counter(obs.Label(metricShed, "reason", r.String()))
	}
	m.queue = reg.Gauge(metricQueueDepth)
	m.latencyNs = reg.Histogram(metricLatencyNs, obs.NsBuckets)
	m.conns = reg.Counter(metricConns)
	m.sampled = reg.Counter(metricSampled)
	m.frozen = reg.Gauge(metricFlightFrozen)
	m.reg = reg
	return m
}
