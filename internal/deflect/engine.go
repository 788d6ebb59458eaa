package deflect

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/word"
)

// Engine is the synchronous slotted bufferless simulator. Sites hold
// no queues: a site's capacity is its output-link count, every round
// it emits all resident messages (one per directed channel; undirected
// edges are full-duplex, one message per direction), and a message
// that loses the contention for an advancing link is deflected onto a
// free link by the configured policy instead of waiting. Contention is
// resolved oldest-first (injection round, then injection order), which
// in practice starves no message: the globally oldest message wins
// every contention it enters and advances monotonically. The age
// guard (Config.MaxAge) makes any residual livelock detectable — aged
// messages are removed and counted in dn_deflect_guard_trips_total,
// never silently retained.
//
// The engine is deterministic given its configuration: sites are
// processed in vertex order, residents in priority order, and every
// random choice draws from the seeded generator. Not safe for
// concurrent use.
//
// Sites are vertex ranks throughout: out-links are the OutNeighbors of
// a graph.DeBruijn graph and messages carry their destination's rank.
// A site reads the distances it classifies its links by where the
// message stands, as the paper's distance function allows (Property 1,
// Theorem 2): D(u,dst) for each free out-neighbour u is a byte of the
// shared rank table, tab[u·N+dst], when the table tier answers the
// graph, and otherwise one core.Kernels call, with D(v,dst) carried on
// the message from the hop that chose v. The engine keeps no state per
// destination, so its memory is O(N·d) however many destinations the
// traffic has.
type Engine struct {
	cfg Config
	g   *graph.Graph
	kn  *core.Kernels
	rng *rand.Rand

	resident [][]*msg
	inflight int
	nextID   int
	round    int

	injected, refused, delivered, guardDropped int
	deflections, hopsMoved                     int64
	latHist, defHist                           stats.Histogram
	maxLatency                                 int

	m deflectMetrics

	// per-Step scratch, written back after use so a warm round
	// allocates nothing
	free     []int32
	freeDist []uint8 // D(u,dst) of each free link u, parallel to free
	cand     []int32
	candDist []uint8 // parallel to cand
	candIdx  []int
	minIdx   []int
	moves    []move
	spare    []*msg // messages that left the network, reused by Inject
	// digit buffers the off-table distances unrank a site and the
	// destination into
	siteDigits, dstDigits []byte
}

type msg struct {
	id   int
	dstV int // destination rank
	// dist is D(site, dst) where the message stands: noDist until the
	// message's first round off the table computes it, then the
	// distance of the link each hop took.
	dist        uint8
	born        int // round at injection
	hops        int
	deflections int
}

// noDist marks a message whose distance has not been computed yet;
// every distance is at most k < 255.
const noDist = 0xff

type move struct {
	m  *msg
	to int
}

// Config parameterizes a deflection engine.
type Config struct {
	D, K int
	// Unidirectional restricts links to type-L (left-shift) moves and
	// distances to Property 1; otherwise the undirected DG(d,k) with
	// Theorem 2 distances.
	Unidirectional bool
	// Policy deflects contention losers; PolicyRandom when nil.
	Policy Policy
	// Seed drives every random choice (policies); runs are reproducible.
	Seed int64
	// MaxAge is the livelock guard: a message older than MaxAge rounds
	// is removed and counted (dn_deflect_guard_trips_total). 0 means
	// 64·k. Must be at least k (the diameter) to be satisfiable.
	MaxAge int
	// Obs receives dn_deflect_* metrics; nil disables instrumentation
	// at the cost of one nil check per event.
	Obs *obs.Registry
}

// New validates the configuration and builds the engine: O(N·d)
// adjacency entries and resident slots in a number of allocations that
// does not grow with N.
func New(cfg Config) (*Engine, error) {
	return newEngine(cfg, core.NewKernels(core.KernelConfig{}))
}

// newEngine is New with the distances read through kn.
func newEngine(cfg Config, kn *core.Kernels) (*Engine, error) {
	kind := graph.Undirected
	if cfg.Unidirectional {
		kind = graph.Directed
	}
	g, err := graph.DeBruijn(kind, cfg.D, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	if cfg.Policy == nil {
		cfg.Policy = PolicyRandom{}
	}
	if cfg.MaxAge == 0 {
		cfg.MaxAge = 64 * cfg.K
	}
	if cfg.MaxAge < cfg.K {
		return nil, fmt.Errorf("deflect: MaxAge %d below diameter %d", cfg.MaxAge, cfg.K)
	}
	// A site holds at most one message per output link, so each
	// resident set gets exactly that capacity from one backing array
	// with a slot per arc.
	arcs := g.NumEdges()
	if kind == graph.Undirected {
		arcs *= 2 // an edge is an output link at both ends
	}
	backing := make([]*msg, arcs)
	resident := make([][]*msg, g.NumVertices())
	for v := range resident {
		c := len(g.OutNeighbors(v))
		resident[v], backing = backing[:0:c], backing[c:]
	}
	digits := make([]byte, 2*cfg.K)
	return &Engine{
		cfg:        cfg,
		g:          g,
		kn:         kn,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		resident:   resident,
		m:          newDeflectMetrics(cfg.Obs),
		siteDigits: digits[:cfg.K],
		dstDigits:  digits[cfg.K:],
	}, nil
}

// Config returns the configuration with defaults resolved.
func (e *Engine) Config() Config { return e.cfg }

// Graph exposes the underlying topology (read-only use): the
// graph.DeBruijn graph whose OutNeighbors are the sites' output links.
func (e *Engine) Graph() *graph.Graph { return e.g }

// NumSites returns d^k.
func (e *Engine) NumSites() int { return e.g.NumVertices() }

// Word returns the address of vertex v.
func (e *Engine) Word(v int) word.Word {
	w, err := word.Unrank(e.cfg.D, e.cfg.K, uint64(v))
	if err != nil {
		panic(err) // v is not a vertex of DN(d,k)
	}
	return w
}

// Inflight returns the number of messages currently resident.
func (e *Engine) Inflight() int { return e.inflight }

// Capacity returns the output-slot count of the site addressed by w —
// the number of messages it can hold between rounds.
func (e *Engine) Capacity(w word.Word) (int, error) {
	v, err := e.vertex(w)
	if err != nil {
		return 0, err
	}
	return len(e.g.OutNeighbors(v)), nil
}

func (e *Engine) vertex(w word.Word) (int, error) {
	if w.Base() != e.cfg.D || w.Len() != e.cfg.K {
		return 0, fmt.Errorf("deflect: word %v does not address DN(%d,%d)", w, e.cfg.D, e.cfg.K)
	}
	return graph.DeBruijnVertex(w), nil
}

// Inject offers one message at src bound for dst. A bufferless site
// can hold at most one message per output link, so injection is
// refused (false, counted in dn_deflect_refused_total) when src has no
// free slot this round. A self-addressed message is absorbed
// immediately with zero hops.
func (e *Engine) Inject(src, dst word.Word) (bool, error) {
	sv, err := e.vertex(src)
	if err != nil {
		return false, err
	}
	dv, err := e.vertex(dst)
	if err != nil {
		return false, err
	}
	return e.inject(sv, dv), nil
}

// inject is Inject by vertex rank.
func (e *Engine) inject(sv, dv int) bool {
	if sv == dv {
		e.injected++
		e.m.injected.Inc()
		e.deliver(&msg{dstV: dv, born: e.round})
		return true
	}
	if len(e.resident[sv]) >= len(e.g.OutNeighbors(sv)) {
		e.refused++
		e.m.refused.Inc()
		return false
	}
	var m *msg
	if n := len(e.spare); n > 0 {
		m, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		m = new(msg)
	}
	*m = msg{id: e.nextID, dstV: dv, dist: noDist, born: e.round}
	e.nextID++
	e.resident[sv] = append(e.resident[sv], m)
	e.inflight++
	e.injected++
	e.m.injected.Inc()
	e.m.inflight.Set(float64(e.inflight))
	return true
}

// Step advances one synchronous round: every site emits all resident
// messages in oldest-first priority order, winners take advancing
// links, losers are deflected onto free links by the policy, arrivals
// at their destination are absorbed, and over-age messages trip the
// livelock guard.
func (e *Engine) Step() error {
	e.round++
	e.m.rounds.Inc()
	tab := e.kn.DistanceTable(e.cfg.D, e.cfg.K, e.cfg.Unidirectional)
	moves := e.moves[:0]
	for v := 0; v < len(e.resident); v++ {
		rs := e.resident[v]
		if len(rs) == 0 {
			continue
		}
		byPriority(rs)
		free := append(e.free[:0], e.g.OutNeighbors(v)...)
		for _, m := range rs {
			if len(free) == 0 {
				return fmt.Errorf("deflect: site %v holds more messages than output links (internal invariant)", e.Word(v))
			}
			dv, freeDist, err := e.distances(m, v, free, tab)
			if err != nil {
				return err
			}
			// Candidate links: the free advancing ones, all at
			// distance dv-1, else (a deflection) every free link.
			adv, advIdx := e.cand[:0], e.candIdx[:0]
			for i, du := range freeDist {
				if du+1 == dv {
					adv, advIdx = append(adv, free[i]), append(advIdx, i)
				}
			}
			e.cand, e.candIdx = adv, advIdx
			cand, candDist, deflected := adv, e.candDist[:0], len(adv) == 0
			if deflected {
				cand, candDist = free, freeDist
			}
			choice := 0
			if len(cand) > 1 {
				if !deflected {
					for range cand {
						candDist = append(candDist, dv-1)
					}
					e.candDist = candDist
				}
				choice, err = e.cfg.Policy.Choose(e, v, cand, candDist)
				if err != nil {
					return err
				}
				if choice < 0 || choice >= len(cand) {
					return fmt.Errorf("deflect: policy %s chose %d of %d candidates", e.cfg.Policy.Name(), choice, len(cand))
				}
			}
			to, fi := int(cand[choice]), choice
			if deflected {
				m.dist = freeDist[choice]
			} else {
				m.dist, fi = dv-1, advIdx[choice]
			}
			free = append(free[:fi], free[fi+1:]...)
			m.hops++
			e.hopsMoved++
			e.m.hopsMoved.Inc()
			if deflected {
				m.deflections++
				e.deflections++
				e.m.deflections.Inc()
			}
			moves = append(moves, move{m: m, to: to})
		}
		e.free = free
		e.resident[v] = rs[:0]
	}
	for _, mv := range moves {
		m := mv.m
		switch {
		case mv.to == m.dstV:
			e.inflight--
			e.deliver(m)
			e.spare = append(e.spare, m)
		case e.round-m.born >= e.cfg.MaxAge:
			e.inflight--
			e.guardDropped++
			e.m.guardTrips.Inc()
			e.spare = append(e.spare, m)
		default:
			e.resident[mv.to] = append(e.resident[mv.to], m)
		}
	}
	e.moves = moves[:0]
	e.m.inflight.Set(float64(e.inflight))
	e.m.throughput.Set(float64(e.delivered) / float64(e.round))
	return nil
}

// distances returns D(v,dst) for the message m standing at v and
// D(u,dst) for each link u in free, in a slice parallel to free that
// the next call overwrites. With the table's distance matrix tab they
// are byte loads; otherwise each is one kernel call on operands
// unranked in place, except D(v,dst), which the previous hop left on
// the message.
func (e *Engine) distances(m *msg, v int, free []int32, tab []uint8) (uint8, []uint8, error) {
	dist := e.freeDist[:0]
	if tab != nil {
		n, dst := len(e.resident), m.dstV
		for _, u := range free {
			dist = append(dist, tab[int(u)*n+dst])
		}
		e.freeDist = dist
		return tab[v*n+dst], dist, nil
	}
	dst, err := word.UnrankInPlace(e.dstDigits, e.cfg.D, uint64(m.dstV))
	if err != nil {
		return 0, nil, err
	}
	if m.dist == noDist {
		if m.dist, err = e.distance(v, dst); err != nil {
			return 0, nil, err
		}
	}
	for _, u := range free {
		du, err := e.distance(int(u), dst)
		if err != nil {
			return 0, nil, err
		}
		dist = append(dist, du)
	}
	e.freeDist = dist
	return m.dist, dist, nil
}

// distance is D(v,dst) through the kernel ladder: Property 1 on the
// directed graph, Theorem 2 on the undirected one.
func (e *Engine) distance(v int, dst word.Word) (uint8, error) {
	w, err := word.UnrankInPlace(e.siteDigits, e.cfg.D, uint64(v))
	if err != nil {
		return 0, err
	}
	var d int
	if e.cfg.Unidirectional {
		d, err = e.kn.DirectedDistance(w, dst)
	} else {
		d, err = e.kn.UndirectedDistance(w, dst)
	}
	return uint8(d), err
}

// byPriority sorts a site's residents oldest first: injection round,
// then injection order. A site holds at most 2d messages, so an
// insertion sort beats a general one.
func byPriority(rs []*msg) {
	for i := 1; i < len(rs); i++ {
		m := rs[i]
		j := i
		for ; j > 0 && (rs[j-1].born > m.born || rs[j-1].born == m.born && rs[j-1].id > m.id); j-- {
			rs[j] = rs[j-1]
		}
		rs[j] = m
	}
}

// deliver absorbs m (already removed from the resident sets) at its
// destination and records the latency and per-message deflections.
func (e *Engine) deliver(m *msg) {
	lat := e.round - m.born
	e.delivered++
	e.m.delivered.Inc()
	e.m.latency.Observe(float64(lat))
	e.m.msgDeflections.Observe(float64(m.deflections))
	// stats.Histogram rejects only negatives; lat and deflections are ≥ 0.
	_ = e.latHist.Add(lat)
	_ = e.defHist.Add(m.deflections)
	if lat > e.maxLatency {
		e.maxLatency = lat
	}
}

// Stats summarizes the run so far.
type Stats struct {
	Rounds int
	// Injected = Delivered + GuardDropped + Inflight, exactly.
	Injected, Refused, Delivered, GuardDropped, Inflight int
	// Deflections counts non-advancing link crossings; HopsMoved all
	// crossings.
	Deflections, HopsMoved int64
	// MeanLatency, P99Latency, MaxLatency are over delivered messages,
	// in rounds from injection to absorption.
	MeanLatency            float64
	P99Latency, MaxLatency int
	// MeanDeflections is the mean deflection count per delivered
	// message; DeflectionRate is deflections per link crossing.
	MeanDeflections float64
	DeflectionRate  float64
	// Throughput is delivered messages per round.
	Throughput float64
}

// Stats computes the current counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Rounds:          e.round,
		Injected:        e.injected,
		Refused:         e.refused,
		Delivered:       e.delivered,
		GuardDropped:    e.guardDropped,
		Inflight:        e.inflight,
		Deflections:     e.deflections,
		HopsMoved:       e.hopsMoved,
		MeanLatency:     e.latHist.Mean(),
		P99Latency:      e.latHist.Quantile(0.99),
		MaxLatency:      e.maxLatency,
		MeanDeflections: e.defHist.Mean(),
	}
	if e.hopsMoved > 0 {
		s.DeflectionRate = float64(e.deflections) / float64(e.hopsMoved)
	}
	if e.round > 0 {
		s.Throughput = float64(e.delivered) / float64(e.round)
	}
	return s
}
