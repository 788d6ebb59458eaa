package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// Router metric names (README.md § Observability).
const (
	metricRoutesBuilt   = "core_routes_built_total"
	metricDistanceEvals = "core_distance_evals_total"
	metricAnchorRows    = "core_anchor_rows_total"
	metricRouterRouteNs = "core_router_route_ns"
)

// routerMetrics are pre-resolved instrument handles; all nil when
// observation is off, so the hot path pays one nil check per call.
type routerMetrics struct {
	routesBuilt   *obs.Counter
	distanceEvals *obs.Counter
	anchorRows    *obs.Counter
	routeNs       *obs.Histogram
}

// Router is the §4 remark made concrete: "appropriately implemented,
// the constant factors of our linear algorithms are low enough to make
// these algorithms of practical use". It evaluates Theorem 2 and
// builds Algorithm 2 routes on a private scratch, so repeated routing
// on one DN(d,k) — the forwarding hot path — performs no per-query
// heap allocation beyond the returned path, and adds the metrics layer
// the bare scratch omits. Not safe for concurrent use; give each
// forwarding goroutine its own Router.
type Router struct {
	k  int
	sc *scratch
	m  routerMetrics
}

// NewRouter returns a Router for words of length k.
func NewRouter(k int) *Router {
	return &Router{k: k, sc: new(scratch)}
}

// SetObserver attaches a metrics registry: routes built, Theorem-2
// distance evaluations, anchor-scan rows, and per-route latency land
// in it. A nil registry detaches (the default — instrumentation then
// costs one nil check per operation).
func (r *Router) SetObserver(reg *obs.Registry) {
	if reg == nil {
		r.m = routerMetrics{}
		return
	}
	r.m = routerMetrics{
		routesBuilt:   reg.Counter(metricRoutesBuilt),
		distanceEvals: reg.Counter(metricDistanceEvals),
		anchorRows:    reg.Counter(metricAnchorRows),
		routeNs:       reg.Histogram(metricRouterRouteNs, obs.NsBuckets),
	}
}

// anchors computes the two minimizing anchors of Theorem 2 in O(k²)
// time and O(k) space with no allocation, in bestL/RQuadratic's
// minimization order (so the Router's anchors — and hence its paths —
// are byte-identical to the package-level RouteUndirected's).
func (r *Router) anchors(xd, yd []byte) (aL, aR anchor) {
	// 2k Morris–Pratt rows per evaluation (k per anchor direction).
	r.m.anchorRows.Add(int64(2 * len(xd)))
	return r.sc.anchorsQuadratic(xd, yd)
}

// Distance evaluates Theorem 2 without allocating.
func (r *Router) Distance(x, y word.Word) (int, error) {
	if err := r.load(x, y); err != nil {
		return 0, err
	}
	r.m.distanceEvals.Inc()
	if x.Equal(y) {
		return 0, nil
	}
	aL, aR := r.anchors(r.sc.xd, r.sc.yd)
	if aR.dist < aL.dist {
		return aR.dist, nil
	}
	return aL.dist, nil
}

// Route builds an Algorithm 2 shortest path, allocating only the
// returned Path.
func (r *Router) Route(x, y word.Word) (Path, error) {
	var start time.Time
	if r.m.routeNs != nil {
		start = time.Now()
	}
	if err := r.load(x, y); err != nil {
		return nil, err
	}
	r.m.routesBuilt.Inc()
	if x.Equal(y) {
		return Path{}, nil
	}
	aL, aR := r.anchors(r.sc.xd, r.sc.yd)
	p := buildUndirectedPath(y, aL, aR)
	if r.m.routeNs != nil {
		r.m.routeNs.Observe(float64(time.Since(start)))
	}
	return p, nil
}

func (r *Router) load(x, y word.Word) error {
	if err := validatePair(x, y); err != nil {
		return err
	}
	if x.Len() != r.k {
		return wrongLenError(r.k, x.Len())
	}
	r.sc.loadDigits(x, y)
	return nil
}

func wrongLenError(want, got int) error {
	return fmt.Errorf("core: router built for length %d, got %d", want, got)
}
