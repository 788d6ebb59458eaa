// Package serve exposes the paper's routing kernels as a long-running,
// concurrent route-query service with production semantics: per-request
// deadlines, bounded admission with explicit load shedding, an LRU
// result cache, and a degrade ladder that trades answer fidelity for
// bounded latency under overload.
//
// The serving stack is built directly on the zero-allocation kernels:
// each worker shard owns one core.Kernels, so a query is
// answered in O(k) time or better with no per-query heap allocation
// beyond the returned path — exactly the regime Liu's O(k) algorithms target
// (per-query computation replacing O(N) routing state). The degrade
// ladder leans on the distance-layer view of Fàbrega, Martí-Farré &
// Muñoz (arXiv:2203.09918): every vertex of DG(d,k) lies in some layer
// B_i with i ≤ k, so even when the server sheds all routing work it can
// still answer with the layer bounds [0|1, k] at O(1) cost.
//
// Layers, from the wire inward:
//
//   - wire.go: a length-prefixed JSON protocol (4-byte big-endian
//     frame length + one Request/Response object per frame).
//   - server.go: accept loop → per-connection reader (admission:
//     non-blocking enqueue onto a bounded queue, shed-on-full) →
//     worker shards → per-connection writer. Accept and admission
//     never block on routing work.
//   - serve.go (this file): Engine is the per-worker compute core
//     (cache lookup + kernel dispatch) shared by the server, the
//     benchmarks, and the load generator.
//   - cache.go: a mutex-guarded LRU keyed by (kind, mode, d, k, src,
//     dst); hits return the stored answer with zero allocation.
//   - client.go: a concurrent client for the wire protocol (TCP via
//     Dial, in-process via Server.SelfClient over net.Pipe).
//   - loadgen.go: closed- and open-loop load generation driving the
//     E21 sweep (cmd/dbserve -selfcheck, dbstats -table serve).
//
// Every admitted request has exactly one outcome — answered, degraded,
// or shed (by reason) — and the server's Counts method exposes the
// exact conservation invariant sent = answered + degraded + shed that
// the tests pin, in the same style as the network engines' accounting.
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/word"
)

// Kind selects which question a query asks.
type Kind uint8

// The four query kinds of the wire protocol. KindBatch exists only at
// the wire layer (a batch frame carries sub-queries of the other
// kinds); the Engine answers the three scalar kinds.
const (
	KindDistance Kind = iota
	KindRoute
	KindNextHop
	KindBatch
)

// String returns the wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindDistance:
		return "distance"
	case KindRoute:
		return "route"
	case KindNextHop:
		return "nexthop"
	case KindBatch:
		return "batch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Mode selects the network orientation a query is answered for.
type Mode uint8

// Orientations: Undirected is Theorem 2 / Algorithm 4 territory,
// Directed is Property 1 / Algorithm 1.
const (
	Undirected Mode = iota
	Directed
)

// String returns the wire name of the mode.
func (m Mode) String() string {
	if m == Directed {
		return "directed"
	}
	return "undirected"
}

// Level is a rung of the degrade ladder.
type Level uint8

// The ladder, mildest first. Known link failures move undirected
// route queries to the fault-aware detour path (LevelDetour); under
// sustained overload the server climbs further: route queries lose
// their paths entirely (LevelDistance), then all queries collapse to
// layer-bound estimates (LevelBounds).
const (
	// LevelFull answers every kind completely.
	LevelFull Level = iota
	// LevelDetour answers undirected route queries with the exact
	// distance plus the arborescence detour path around the server's
	// failed-link set (stretch ≤ the fault router's hop bound) instead
	// of the optimal path, which may cross a failed link. The server
	// enters it only when its failed-link set is non-empty: under
	// overload alone a detour costs more than the optimal answer.
	// Detour answers are labelled on the wire and never cached. Other
	// kinds, and directed route queries (arborescences live on the
	// undirected graph), are answered as at LevelFull.
	LevelDetour
	// LevelDistance answers route queries with the exact distance but
	// no path (the path construction and its allocation are skipped);
	// distance and next-hop queries are unaffected (they are already
	// O(k) and allocation-free).
	LevelDistance
	// LevelBounds answers every kind with the distance-layer bounds
	// only: D(src,dst) ∈ [1, k] for distinct vertices (every vertex
	// lies in a layer B_i, i ≤ k = diameter), [0, 0] for src == dst.
	// O(1) beyond the equality scan; no kernel work at all.
	LevelBounds
)

// DegradeString returns the wire label of a level ("" for full).
func (l Level) DegradeString() string {
	switch l {
	case LevelDetour:
		return "detour"
	case LevelDistance:
		return "distance"
	case LevelBounds:
		return "bounds"
	default:
		return ""
	}
}

// Query is one parsed scalar query (never a batch).
type Query struct {
	Kind Kind
	Mode Mode
	Src  word.Word
	Dst  word.Word
}

// Answer is the engine-level result of a query. Which fields are
// meaningful depends on Kind and Level; Level records the rung the
// answer was computed at (cache hits always carry LevelFull).
type Answer struct {
	// Distance is D(src,dst); exact at LevelFull/LevelDistance.
	Distance int
	// Path is the routing path (KindRoute): the shortest path at
	// LevelFull, the fault-avoiding detour path at LevelDetour.
	Path core.Path
	// Anchor is the shortest path's compact form (KindRoute at
	// LevelFull): the wire carries it in place of the hops, and
	// core.AppendRoute expands it into Path from dst's digits.
	Anchor core.Anchor
	// Hop is the optimal next hop and HasHop its validity flag
	// (KindNextHop; HasHop false means src == dst).
	Hop    core.Hop
	HasHop bool
	// Level is the rung this answer was produced at.
	Level Level
	// Lo, Hi are the layer bounds on D(src,dst) (LevelBounds only).
	Lo, Hi int
}

// ErrBadQuery wraps every query-validation failure, so callers can
// errors.Is their way to "client error, not server fault".
var ErrBadQuery = errors.New("serve: invalid query")

// Validate checks that the query addresses one de Bruijn network.
func (q Query) Validate() error {
	if q.Kind > KindNextHop {
		return fmt.Errorf("%w: kind %v is not answerable", ErrBadQuery, q.Kind)
	}
	if q.Src.IsZero() || q.Dst.IsZero() {
		return fmt.Errorf("%w: zero-value address", ErrBadQuery)
	}
	if q.Src.Base() != q.Dst.Base() || q.Src.Len() != q.Dst.Len() {
		return fmt.Errorf("%w: src DG(%d,%d) and dst DG(%d,%d) are different networks",
			ErrBadQuery, q.Src.Base(), q.Src.Len(), q.Dst.Base(), q.Dst.Len())
	}
	return nil
}

// appendKey appends the cache key of q: kind, mode, d, k (two bytes),
// then the raw digits of src and dst. Fixed-width fields need no
// separators. Allocation-free once the buffer has grown.
func appendKey(b []byte, q Query) []byte {
	b = append(b, byte(q.Kind), byte(q.Mode), byte(q.Src.Base()),
		byte(q.Src.Len()>>8), byte(q.Src.Len()))
	for i, k := 0, q.Src.Len(); i < k; i++ {
		b = append(b, q.Src.Digit(i))
	}
	for i, k := 0, q.Dst.Len(); i < k; i++ {
		b = append(b, q.Dst.Digit(i))
	}
	return b
}

// AppendKey appends the canonical cache-key bytes of q to b and
// returns the extended slice. The encoding identifies the query
// exactly (kind, mode, base, length, then the raw src/dst digits), so
// it doubles as the placement key of the cluster layer: hashing these
// bytes decides which node owns the query's cache line.
func (q Query) AppendKey(b []byte) []byte { return appendKey(b, q) }

// Engine is the per-worker compute core: one tiered kernel engine
// (core.Kernels — rank-indexed tables, bit-packed kernels, or the
// byte-digit scratch, selected per (d,k)) plus an optional shared
// result cache. Not safe for concurrent use — the server gives each
// worker shard its own Engine (the Cache itself is concurrency-safe).
// The benchmarks (dbbench -suite serve) and the AllocsPerRun tests
// drive Engine directly: a cache hit is 0 allocs/op and a miss stays
// within the PR 4 kernel budget (0 for distance and next-hop, 1 — the
// returned path — for route).
type Engine struct {
	kn    *core.Kernels
	cache *Cache
	key   []byte
	dst   []byte // the route destination's digits

	// faults is the LevelDetour rung's shared failed-link set
	// (SetFaults; nil means no faults and detour answers degenerate to
	// tree paths). The fault routers themselves are core's, one per
	// (d,k) process-wide; a (d,k) too large for fault routing falls
	// through to LevelDistance.
	faults *FaultSet
}

// NewEngine returns an Engine with the default kernel configuration,
// consulting cache when non-nil.
func NewEngine(cache *Cache) *Engine {
	return &Engine{kn: core.NewKernels(core.KernelConfig{}), cache: cache}
}

// Kernels exposes the engine's tier dispatcher (dbstats and tests
// inspect tier selection through it).
func (e *Engine) Kernels() *core.Kernels { return e.kn }

// BeginBatch does nothing: every sub-query of a batch is answered on
// its own by one kernel call, so there is nothing to prepare.
//
// Deprecated: answer each sub-query with AnswerTraced.
func (e *Engine) BeginBatch([]Query) {}

// AnswerBatchTraced is AnswerTraced; the batch index is ignored.
//
// Deprecated: use AnswerTraced.
func (e *Engine) AnswerBatchTraced(_ int, q Query, level Level, tr *obs.ReqTrace) (Answer, bool, error) {
	return e.AnswerTraced(q, level, tr)
}

// Answer resolves q at the given degrade level. The boolean reports a
// cache hit (hits always return the full-fidelity stored answer, even
// when level asks for less — serving cached answers under overload is
// the cheap path, not a degradation). The one exception is an
// undirected route query at LevelDetour, which skips the cache both
// ways: a stored optimal path may cross a link that has since failed.
// Only LevelFull computations are inserted into the cache, so a
// degraded answer can never masquerade as a full one later.
func (e *Engine) Answer(q Query, level Level) (Answer, bool, error) {
	return e.AnswerTraced(q, level, nil)
}

// AnswerTraced is Answer recording spans into tr when non-nil: a cache
// span (detail "hit"/"miss"), a kernel span named kernel/<stage> whose
// Layer is the distance-layer index B_d of the destination, and — for
// route answers with a path — the per-hop inject/forward/deliver
// events of core.TraceEvents. A nil tr takes the identical compute
// path with only untaken nil checks added, preserving the
// zero-allocation budgets of the untraced engine.
func (e *Engine) AnswerTraced(q Query, level Level, tr *obs.ReqTrace) (Answer, bool, error) {
	if err := q.Validate(); err != nil {
		return Answer{}, false, err
	}
	// A cached optimal path may cross a link that has since failed, so
	// detour-level route lookups skip the cache read. (They can never
	// reach the cache put either: the detour branch answers at
	// LevelDetour or LevelDistance, never LevelFull.)
	detourRoute := level == LevelDetour && q.Kind == KindRoute && q.Mode == Undirected
	if e.cache != nil && !detourRoute {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		e.key = appendKey(e.key[:0], q)
		a, ok := e.cache.get(e.key)
		if tr != nil {
			detail := "miss"
			if ok {
				detail = "hit"
			}
			tr.AddSpan(obs.SpanCache, t0, time.Now(), obs.LayerNone, detail)
		}
		if ok {
			e.traceAnswer(q, a, tr)
			return a, true, nil
		}
	}
	if level >= LevelBounds {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		a := boundsAnswer(q)
		if tr != nil {
			tr.AddSpan(obs.SpanKernel+"/bounds", t0, time.Now(), a.Hi, "")
		}
		return a, false, nil
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	a, err := e.compute(q, level)
	if err != nil {
		return Answer{}, false, err
	}
	if tr != nil {
		tr.AddSpan(obs.SpanKernel+"/"+q.Kind.String(), t0, time.Now(), e.answerLayer(q, a), "")
		e.traceAnswer(q, a, tr)
	}
	if e.cache != nil && a.Level == LevelFull {
		e.cache.put(e.key, a)
	}
	return a, false, nil
}

// answerLayer is the distance-layer index B_d the answer places the
// destination in: the computed distance for distance/route answers,
// recomputed (sampled path only, O(k)) for next-hop answers, which do
// not carry one.
func (e *Engine) answerLayer(q Query, a Answer) int {
	if q.Kind != KindNextHop {
		return a.Distance
	}
	d, err := e.distance(q)
	if err != nil {
		return obs.LayerNone
	}
	return d
}

// traceAnswer attaches the route answer's hop events to tr. Cache hits
// contribute too — the stored path replays through the same
// layer-annotated vocabulary as a fresh computation.
func (e *Engine) traceAnswer(q Query, a Answer, tr *obs.ReqTrace) {
	if tr == nil || a.Path == nil {
		return
	}
	hops, err := core.TraceEvents(q.Src, a.Path, a.Distance)
	if err != nil {
		return
	}
	tr.AddHops(hops)
}

// boundsAnswer is the LevelBounds rung: layer bounds only, no kernel.
func boundsAnswer(q Query) Answer {
	a := Answer{Level: LevelBounds, Hi: q.Src.Len()}
	if q.Src.Equal(q.Dst) {
		a.Hi = 0
	} else {
		a.Lo = 1
	}
	return a
}

// compute runs the routing kernels at the requested degrade level,
// one kernel call per answer. A full-fidelity route takes its
// distance from its path: Algorithm 2 builds the path from the
// anchors that minimize Theorem 2, so it has exactly D(src,dst) hops
// (Property 1's directed path likewise has k−l).
func (e *Engine) compute(q Query, level Level) (Answer, error) {
	var a Answer
	var err error
	detourRoute := level == LevelDetour && q.Mode == Undirected
	switch {
	case q.Kind == KindNextHop:
		a.Hop, a.HasHop, err = e.nextHop(q)
	case q.Kind == KindRoute && level < LevelDistance && !detourRoute:
		a.Anchor, a.Path, err = e.route(q)
		a.Distance = len(a.Path)
	default:
		a.Distance, err = e.distance(q)
		if err != nil || q.Kind == KindDistance {
			break
		}
		// A degraded route: the detour path around the failed links,
		// or — with no fault router for this (d,k), or a failure set
		// beyond its tolerance — one rung further down rather than a
		// path that crosses known-dead links.
		a.Level = LevelDistance
		if detourRoute {
			if p, ok := e.detour(q); ok {
				a.Path, a.Level = p, LevelDetour
			}
		}
	}
	return a, err
}

func (e *Engine) distance(q Query) (int, error) {
	if q.Mode == Directed {
		return e.kn.DirectedDistance(q.Src, q.Dst)
	}
	return e.kn.UndirectedDistance(q.Src, q.Dst)
}

// route returns the canonical route's anchor — Algorithm 2's, or
// Algorithm 1's when directed — and its path, allocated once at its
// exact length.
func (e *Engine) route(q Query) (core.Anchor, core.Path, error) {
	var a core.Anchor
	var err error
	if q.Mode == Directed {
		a, err = e.kn.RouteAnchorDirected(q.Src, q.Dst)
	} else {
		a, err = e.kn.RouteAnchor(q.Src, q.Dst)
	}
	if err != nil {
		return core.Anchor{}, nil, err
	}
	e.dst = q.Dst.AppendDigits(e.dst[:0])
	n, _ := a.Hops(len(e.dst))
	return a, core.AppendRoute(make(core.Path, 0, n), e.dst, a), nil
}

func (e *Engine) nextHop(q Query) (core.Hop, bool, error) {
	if q.Mode == Directed {
		return e.kn.NextHopDirected(q.Src, q.Dst)
	}
	return e.kn.NextHopUndirected(q.Src, q.Dst)
}
