// Package network simulates the de Bruijn network DN(d,k) of Section
// 3: sites connected by shift-register links, exchanging messages of
// five fields — control code, source address, destination address,
// routing path, and payload. A site receiving a message with an empty
// routing-path field accepts it; otherwise it removes the head pair
// (a,b) and forwards to X⁻(b) (a = 0) or X⁺(b) (a = 1). Wildcard
// pairs (a,*) let the forwarding site choose any neighbor of the
// requested type, which is how the paper's traffic-balancing remark is
// realized (experiment E7).
//
// Substitution note (DESIGN.md): the paper's evaluation is analytic;
// this simulator is the synthetic testbed that exercises the message
// format and forwarding rule end to end. Network is the deterministic
// synchronous engine the experiments use.
//
// The engine is instrumented: pass an obs.Registry via the config
// to count sent/delivered/dropped-by-reason/rerouted messages, link
// crossings, hop and route-build-latency histograms, and the link
// load Gini gauge (README.md § Observability lists the metric names).
// Config.Trace upgrades Delivery.Trace to structured per-hop events.
package network

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/word"
)

// Control codes of the message header.
const (
	// ControlData marks an ordinary payload-bearing message.
	ControlData byte = iota + 1
	// ControlPing marks measurement traffic generated by workloads.
	ControlPing
)

// Message is the paper's five-field message.
type Message struct {
	Control byte
	Source  word.Word
	Dest    word.Word
	Route   core.Path
	Payload string
}

// Delivery reports the fate of one simulated message.
type Delivery struct {
	Msg       Message
	Delivered bool
	// Hops is the number of links crossed before acceptance or drop.
	Hops int
	// Rerouted counts mid-flight route recomputations (adaptive mode).
	Rerouted int
	// DropReason is empty on success, else one of the Drop* codes.
	DropReason string
	// DropDetail carries free-form context for a drop (the site where
	// the message died, the failed neighbor, ...).
	DropDetail string
	// Trace holds the structured per-hop event sequence — injection,
	// one forward event per link crossed, reroute markers, and the
	// terminal deliver/drop event — when the engine's Trace flag is
	// set.
	Trace obs.Trace
}

// TraceSites returns the visited site sequence (source first) as
// words, reconstructed from the structured trace — the bare site list
// earlier revisions stored directly.
func (d Delivery) TraceSites() []word.Word {
	sites := d.Trace.Sites()
	out := make([]word.Word, len(sites))
	for i, s := range sites {
		out[i] = word.MustParse(d.Msg.Source.Base(), s)
	}
	return out
}

// Config parameterizes a simulated network.
type Config struct {
	D, K int
	// Unidirectional restricts links to type-L (left-shift) moves, the
	// paper's uni-directional network; routes use Algorithm 1.
	// Bi-directional networks route with core.Kernels, whose paths are
	// Algorithm 2's on every graph.
	Unidirectional bool
	// Policy resolves wildcard hops; PolicyFirst when nil.
	Policy Policy
	// Seed drives every random choice (policies, workloads). Every
	// generator in the engine derives from it, so runs are
	// reproducible.
	Seed int64
	// Adaptive recomputes a BFS route around failed sites on contact;
	// otherwise messages hitting a failed site are dropped.
	Adaptive bool
	// Trace records structured per-hop events on each Delivery.
	Trace bool
	// TTL bounds hops per message; 0 means 4k (generous; optimal
	// routes never exceed k, reroutes stay well below).
	TTL int
	// Obs receives engine metrics; nil disables instrumentation at
	// the cost of one nil check per event.
	Obs *obs.Registry
}

// Network is the deterministic synchronous simulator.
type Network struct {
	cfg      Config
	g        *graph.Graph
	kn       *core.Kernels
	rng      *rand.Rand
	failed   map[int]bool
	linkLoad map[[2]int]int
	siteLoad []int

	delivered int
	dropped   int
	totalHops int

	m           engineMetrics
	routeNs     *obs.Histogram
	gini        *obs.Gauge
	failedSites *obs.Gauge
	faultInject *obs.Counter
}

// New validates the configuration and builds the network.
func New(cfg Config) (*Network, error) {
	kind := graph.Undirected
	if cfg.Unidirectional {
		kind = graph.Directed
	}
	g, err := graph.DeBruijn(kind, cfg.D, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if cfg.Policy == nil {
		cfg.Policy = PolicyFirst{}
	}
	if cfg.TTL == 0 {
		cfg.TTL = 4 * cfg.K
	}
	if cfg.TTL < cfg.K {
		return nil, fmt.Errorf("network: TTL %d below diameter %d", cfg.TTL, cfg.K)
	}
	return &Network{
		cfg:         cfg,
		g:           g,
		kn:          core.NewKernels(core.KernelConfig{}),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		failed:      make(map[int]bool),
		linkLoad:    make(map[[2]int]int),
		siteLoad:    make([]int, g.NumVertices()),
		m:           newEngineMetrics(cfg.Obs),
		routeNs:     cfg.Obs.Histogram(metricRouteNs, obs.NsBuckets),
		gini:        cfg.Obs.Gauge(metricLinkGini),
		failedSites: cfg.Obs.Gauge(metricFailedSites),
		faultInject: cfg.Obs.Counter(metricFaultInject),
	}, nil
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Graph exposes the underlying topology (read-only use).
func (n *Network) Graph() *graph.Graph { return n.g }

// NumSites returns d^k.
func (n *Network) NumSites() int { return n.g.NumVertices() }

// FailSite marks a site as failed; messages reaching it are dropped
// (or rerouted around it in adaptive mode).
func (n *Network) FailSite(w word.Word) error {
	v, err := n.vertex(w)
	if err != nil {
		return err
	}
	n.failed[v] = true
	n.faultInject.Inc()
	n.failedSites.Set(float64(len(n.failed)))
	return nil
}

// FailedSites returns the number of currently failed sites.
func (n *Network) FailedSites() int { return len(n.failed) }

func (n *Network) vertex(w word.Word) (int, error) {
	if w.Base() != n.cfg.D || w.Len() != n.cfg.K {
		return 0, fmt.Errorf("network: word %v does not address DN(%d,%d)", w, n.cfg.D, n.cfg.K)
	}
	return graph.DeBruijnVertex(w), nil
}

// Route computes the optimal routing path for the network's
// directionality: Algorithm 1 (uni-directional) or the kernel
// engine's canonical bi-directional path, which is Algorithm 2's
// (and Algorithm 4's) on every pair.
func (n *Network) Route(src, dst word.Word) (core.Path, error) {
	if n.cfg.Unidirectional {
		return core.RouteDirected(src, dst)
	}
	return n.kn.RouteUndirected(src, dst)
}

// Send routes and synchronously forwards one message from src to dst,
// returning its delivery record. The route is computed by the optimal
// routing algorithm; wildcards are resolved hop by hop with the
// configured policy.
func (n *Network) Send(src, dst word.Word, payload string) (Delivery, error) {
	var start time.Time
	if n.routeNs != nil {
		start = time.Now()
	}
	route, err := n.Route(src, dst)
	if err != nil {
		return Delivery{}, err
	}
	if n.routeNs != nil {
		n.routeNs.Observe(float64(time.Since(start)))
	}
	msg := Message{Control: ControlData, Source: src, Dest: dst, Route: route, Payload: payload}
	return n.Inject(msg)
}

// Inject forwards an explicitly constructed message (custom routes
// welcome — they need not be optimal, only well formed). A malformed
// route is an error and the message is not counted as sent.
func (n *Network) Inject(msg Message) (Delivery, error) {
	if _, err := n.vertex(msg.Source); err != nil {
		return Delivery{}, err
	}
	if _, err := n.vertex(msg.Dest); err != nil {
		return Delivery{}, err
	}
	for i, h := range msg.Route {
		if h.Type != core.TypeL && h.Type != core.TypeR {
			return Delivery{}, fmt.Errorf("network: hop %d has invalid type %d", i, h.Type)
		}
		if !h.Wildcard && int(h.Digit) >= n.cfg.D {
			return Delivery{}, fmt.Errorf("network: hop %d digit %d out of base %d", i, h.Digit, n.cfg.D)
		}
	}
	n.m.sent.Inc()
	return n.forward(msg, false)
}

// forward runs the Section 3 forwarding loop for both addressing
// modes. A hop is popped from the routing-path field while it is
// non-empty; once it empties, a source-routed message is accepted at
// the destination or dropped, and a self-routed one derives its next
// hop locally (nextHop). An adaptive reroute around a failed site
// replaces the routing-path field in either mode, so hop counts, the
// TTL and the dn_hops histogram all cover the whole walk. forward
// assumes addresses are validated and the send was already counted.
func (n *Network) forward(msg Message, selfRouted bool) (Delivery, error) {
	del := Delivery{Msg: msg}
	if n.cfg.Trace {
		del.Trace = append(del.Trace, obs.HopEvent{
			Cause: obs.CauseInject, Site: msg.Source.String(), Digit: -1,
		})
	}
	if n.failed[graph.DeBruijnVertex(msg.Source)] {
		n.drop(&del, msg.Source, DropSourceFailed, "")
		return del, nil
	}
	cur := msg.Source
	route := msg.Route
	for {
		if len(route) == 0 {
			if cur.Equal(msg.Dest) {
				// Empty routing-path field: the message is accepted.
				n.deliver(&del, cur)
				return del, nil
			}
			if !selfRouted {
				n.drop(&del, cur, DropRouteExhausted, fmt.Sprintf("at %v", cur))
				return del, nil
			}
		}
		if del.Hops >= n.cfg.TTL {
			n.drop(&del, cur, DropTTLExceeded, fmt.Sprintf("ttl %d at %v", n.cfg.TTL, cur))
			return del, nil
		}
		var hop core.Hop
		if len(route) > 0 {
			hop, route = route[0], route[1:]
		} else {
			var err error
			if hop, err = n.nextHop(cur, msg.Dest); err != nil {
				return Delivery{}, err
			}
		}
		digit := hop.Digit
		if hop.Wildcard {
			digit = n.cfg.Policy.Choose(n, cur, hop)
			if int(digit) >= n.cfg.D {
				return Delivery{}, fmt.Errorf("network: policy chose digit %d outside base %d", digit, n.cfg.D)
			}
		}
		var next word.Word
		switch hop.Type {
		case core.TypeL:
			next = cur.ShiftLeft(digit)
		case core.TypeR:
			if n.cfg.Unidirectional {
				n.drop(&del, cur, DropTypeRUnidirectional, fmt.Sprintf("at %v", cur))
				return del, nil
			}
			next = cur.ShiftRight(digit)
		default:
			return Delivery{}, fmt.Errorf("network: invalid hop type %d", hop.Type)
		}
		if n.failed[graph.DeBruijnVertex(next)] {
			if !n.cfg.Adaptive {
				n.drop(&del, cur, DropSiteFailed, fmt.Sprintf("next site %v", next))
				return del, nil
			}
			// A purely greedy single-step detour can ping-pong against
			// the failed region, so the site attaches a full
			// failure-avoiding source route (bounded, loop-free).
			reroute, ok := n.rerouteAround(cur, msg.Dest)
			if !ok {
				n.drop(&del, cur, DropNoReroute, fmt.Sprintf("from %v", cur))
				return del, nil
			}
			del.Rerouted++
			n.m.reroutes.Inc()
			if n.cfg.Trace {
				del.Trace = append(del.Trace, obs.HopEvent{
					Hop: del.Hops, Cause: obs.CauseReroute, Site: cur.String(),
					Digit: -1, Detail: fmt.Sprintf("next site %v failed", next),
				})
			}
			route = reroute
			continue
		}
		n.crossLink(&del, cur, next, hop, digit)
		cur = next
	}
}

// crossLink accounts one link crossing cur→next for hop (resolved to
// digit) on the delivery and the engine counters.
func (n *Network) crossLink(del *Delivery, cur, next word.Word, hop core.Hop, digit byte) {
	n.linkLoad[[2]int{graph.DeBruijnVertex(cur), graph.DeBruijnVertex(next)}]++
	n.siteLoad[graph.DeBruijnVertex(next)]++
	del.Hops++
	n.m.linksCrossed.Inc()
	if n.cfg.Trace {
		del.Trace = append(del.Trace, obs.HopEvent{
			Hop: del.Hops, Cause: obs.CauseForward, Site: next.String(),
			Link: hop.Type.String(), Digit: int(digit), Wildcard: hop.Wildcard,
		})
	}
}

// deliver accepts the message at cur and updates the counters.
func (n *Network) deliver(del *Delivery, cur word.Word) {
	del.Delivered = true
	n.delivered++
	n.totalHops += del.Hops
	n.m.delivered.Inc()
	n.m.hops.Observe(float64(del.Hops))
	if n.cfg.Trace {
		del.Trace = append(del.Trace, obs.HopEvent{
			Hop: del.Hops, Cause: obs.CauseDeliver, Site: cur.String(), Digit: -1,
		})
	}
}

// drop discards the message at cur with a stable reason code and
// free-form detail, updating the counters.
func (n *Network) drop(del *Delivery, cur word.Word, reason, detail string) {
	del.DropReason = reason
	del.DropDetail = detail
	n.dropped++
	n.m.countDrop(reason)
	if n.cfg.Trace {
		d := reason
		if detail != "" {
			d += " (" + detail + ")"
		}
		del.Trace = append(del.Trace, obs.HopEvent{
			Hop: del.Hops, Cause: obs.CauseDrop, Site: cur.String(), Digit: -1, Detail: d,
		})
	}
}

// rerouteAround computes a shortest failure-avoiding route from cur to
// dst as explicit hops.
func (n *Network) rerouteAround(cur, dst word.Word) (core.Path, bool) {
	curV := graph.DeBruijnVertex(cur)
	dstV := graph.DeBruijnVertex(dst)
	walk, err := n.g.ShortestPathAvoiding(curV, dstV, n.failed)
	if err != nil || walk == nil {
		return nil, false
	}
	words := make([]word.Word, len(walk))
	for i, v := range walk {
		w, err := graph.DeBruijnWord(n.cfg.D, n.cfg.K, v)
		if err != nil {
			return nil, false
		}
		words[i] = w
	}
	p, err := core.PathFromVertices(words)
	if err != nil {
		return nil, false
	}
	if n.cfg.Unidirectional && !p.OnlyLeftShifts() {
		return nil, false
	}
	return p, true
}

// Stats summarizes traffic since construction (or the last ResetStats).
type Stats struct {
	Delivered, Dropped int
	TotalHops          int
	// MaxLinkLoad and MeanLinkLoad are over links that carried
	// at least one message.
	MaxLinkLoad  int
	MeanLinkLoad float64
	// LoadGini is the Gini coefficient over ALL directed links of the
	// topology (unused links count as zero), the E7 balance metric.
	LoadGini float64
	// MaxSiteLoad is the largest number of message arrivals at any
	// single site.
	MaxSiteLoad int
}

// Stats computes the current counters and refreshes the link-load
// Gini gauge in the registry.
func (n *Network) Stats() Stats {
	s := Stats{Delivered: n.delivered, Dropped: n.dropped, TotalHops: n.totalHops}
	sum := 0
	for _, c := range n.linkLoad {
		if c > s.MaxLinkLoad {
			s.MaxLinkLoad = c
		}
		sum += c
	}
	if len(n.linkLoad) > 0 {
		s.MeanLinkLoad = float64(sum) / float64(len(n.linkLoad))
	}
	s.LoadGini = giniOverAllLinks(n.g, n.linkLoad)
	n.gini.Set(s.LoadGini)
	for _, c := range n.siteLoad {
		if c > s.MaxSiteLoad {
			s.MaxSiteLoad = c
		}
	}
	return s
}

// LinkLoad returns the number of messages that crossed the directed
// link u→v.
func (n *Network) LinkLoad(u, v word.Word) (int, error) {
	uv, err := n.vertex(u)
	if err != nil {
		return 0, err
	}
	vv, err := n.vertex(v)
	if err != nil {
		return 0, err
	}
	return n.linkLoad[[2]int{uv, vv}], nil
}

// ResetStats clears traffic counters (failures persist; registry
// counters are cumulative and are not reset — use Snapshot diffs).
func (n *Network) ResetStats() {
	n.delivered, n.dropped, n.totalHops = 0, 0, 0
	n.linkLoad = make(map[[2]int]int)
	for i := range n.siteLoad {
		n.siteLoad[i] = 0
	}
}

// giniOverAllLinks is the Gini coefficient of load over every link of
// g; an undirected adjacency already lists both directions.
func giniOverAllLinks(g *graph.Graph, load map[[2]int]int) float64 {
	loads := make([]int, 0, 2*g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			loads = append(loads, load[[2]int{u, int(v)}])
		}
	}
	return stats.Gini(loads)
}
