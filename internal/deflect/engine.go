package deflect

import (
	"fmt"
	"math/rand"

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
type Engine struct {
	cfg   Config
	g     *graph.Graph
	rng   *rand.Rand
	sites []word.Word // vertex → word
	cache *LayerCache

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
	free    []int32
	cand    []int32
	candIdx []int
	minIdx  []int
	moves   []move
	spare   []*msg // messages that left the network, reused by Inject
}

type msg struct {
	id          int
	dst         word.Word
	dstV        int
	ly          *Layers // toward dst; resolved on the message's first round
	born        int     // round at injection
	hops        int
	deflections int
}

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

// New validates the configuration and builds the engine.
func New(cfg Config) (*Engine, error) {
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
	n := g.NumVertices()
	// A site holds at most one message per output link, so each
	// resident set gets exactly that capacity from one backing array.
	resident := make([][]*msg, n)
	slots := 0
	for v := range resident {
		slots += len(g.OutNeighbors(v))
	}
	backing := make([]*msg, slots)
	for v, off := 0, 0; v < n; v++ {
		deg := len(g.OutNeighbors(v))
		resident[v] = backing[off : off : off+deg]
		off += deg
	}
	sites := make([]word.Word, n)
	if _, err := word.ForEach(cfg.D, cfg.K, func(w word.Word) bool {
		sites[graph.DeBruijnVertex(w)] = w
		return true
	}); err != nil {
		return nil, fmt.Errorf("deflect: %w", err)
	}
	return &Engine{
		cfg:      cfg,
		g:        g,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		sites:    sites,
		cache:    NewLayerCache(g),
		resident: resident,
		m:        newDeflectMetrics(cfg.Obs),
	}, nil
}

// Config returns the configuration with defaults resolved.
func (e *Engine) Config() Config { return e.cfg }

// Graph exposes the underlying topology (read-only use).
func (e *Engine) Graph() *graph.Graph { return e.g }

// NumSites returns d^k.
func (e *Engine) NumSites() int { return len(e.sites) }

// Word returns the address of vertex v.
func (e *Engine) Word(v int) word.Word { return e.sites[v] }

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

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
	if sv == dv {
		e.injected++
		e.m.injected.Inc()
		e.deliver(&msg{dstV: dv, born: e.round})
		return true, nil
	}
	if len(e.resident[sv]) >= len(e.g.OutNeighbors(sv)) {
		e.refused++
		e.m.refused.Inc()
		return false, nil
	}
	var m *msg
	if n := len(e.spare); n > 0 {
		m, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		m = new(msg)
	}
	*m = msg{id: e.nextID, dst: dst, dstV: dv, born: e.round}
	e.nextID++
	e.resident[sv] = append(e.resident[sv], m)
	e.inflight++
	e.injected++
	e.m.injected.Inc()
	e.m.inflight.Set(float64(e.inflight))
	return true, nil
}

// Step advances one synchronous round: every site emits all resident
// messages in oldest-first priority order, winners take advancing
// links, losers are deflected onto free links by the policy, arrivals
// at their destination are absorbed, and over-age messages trip the
// livelock guard.
func (e *Engine) Step() error {
	e.round++
	e.m.rounds.Inc()
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
				return fmt.Errorf("deflect: site %v holds more messages than output links (internal invariant)", e.sites[v])
			}
			if m.ly == nil {
				ly, err := e.cache.For(m.dst)
				if err != nil {
					return err
				}
				m.ly = ly
			}
			ly := m.ly
			// Candidate links: the free advancing ones, else (a
			// deflection) every free link.
			cand, candIdx := e.cand[:0], e.candIdx[:0]
			dv := ly.dist[v]
			for i, u := range free {
				if ly.dist[u] == dv-1 {
					cand = append(cand, u)
					candIdx = append(candIdx, i)
				}
			}
			deflected := len(cand) == 0
			if deflected {
				for i, u := range free {
					cand = append(cand, u)
					candIdx = append(candIdx, i)
				}
			}
			e.cand, e.candIdx = cand, candIdx
			choice := 0
			if len(cand) > 1 {
				var err error
				choice, err = e.cfg.Policy.Choose(e, ly, v, cand)
				if err != nil {
					return err
				}
				if choice < 0 || choice >= len(cand) {
					return fmt.Errorf("deflect: policy %s chose %d of %d candidates", e.cfg.Policy.Name(), choice, len(cand))
				}
			}
			to := int(cand[choice])
			fi := candIdx[choice]
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
