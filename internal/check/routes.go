package check

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// RoutesOptions parameterizes the route oracle.
type RoutesOptions struct {
	// Seed drives pair sampling and the random wildcard chooser.
	Seed int64
	// SampleAbove is the vertex count N above which the pair set is a
	// seeded sample instead of exhaustive. 0 means 4096 (the paper-scale
	// bound the CI sweep checks exhaustively).
	SampleAbove int
	// SamplePairs is the sample size when sampling. 0 means 4096.
	SamplePairs int
	// DistanceStride thins the explicit distance-function checks
	// (UndirectedDistance, Corollary 4, the linear-tree evaluation) to
	// every stride-th pair on graphs above 1024 vertices; the route
	// checks — which pin Algorithm 2's path to BFS and every other
	// construction to that path on every pair — are never thinned. 0
	// means 16.
	DistanceStride int
	// MaxFindings caps the findings per report. 0 means 32.
	MaxFindings int
	// Workers sets the scan concurrency only: the pair set is always
	// sharded by source and the shards merged in source order, so the
	// verdict — findings included — is the same for every worker
	// count. ≤ 1 runs the shards in a plain loop on the calling
	// goroutine.
	Workers int
}

func (o *RoutesOptions) defaults() {
	if o.SampleAbove == 0 {
		o.SampleAbove = 4096
	}
	if o.SamplePairs == 0 {
		o.SamplePairs = 4096
	}
	if o.DistanceStride <= 0 {
		o.DistanceStride = 16
	}
}

// Routes runs the route oracle on DG(d,k), both directed and
// undirected: every checked pair must satisfy
//
//	DirectedDistance == BFS, and the Algorithm 1 path replays through
//	the directed graph in exactly that many arcs;
//
//	RouteUndirectedLinear, Router.Route and Kernels.RouteUndirected
//	return RouteUndirected's path hop for hop (one canonical path per
//	pair), len(RouteUndirected) == BFS, and that path replays through
//	the undirected graph in exactly that many edges under every
//	wildcard chooser (digit 0, digit d-1, and seeded-random — the
//	resolutions the engines use);
//
//	the three closed-form undirected distance evaluations (Theorem 2
//	quadratic, Corollary 4, linear tree) equal BFS.
func Routes(d, k int, opt RoutesOptions) (Report, error) {
	opt.defaults()
	rep := Report{Mode: "routes", D: d, K: k}
	n, err := word.Count(d, k)
	if err != nil {
		return rep, fmt.Errorf("check: DG(%d,%d): %w", d, k, err)
	}
	dg, err := graph.DeBruijn(graph.Directed, d, k)
	if err != nil {
		return rep, fmt.Errorf("check: %w", err)
	}
	ug, err := graph.DeBruijn(graph.Undirected, d, k)
	if err != nil {
		return rep, fmt.Errorf("check: %w", err)
	}
	// The pair set is sharded by source: one self-contained shard per
	// source (exhaustive mode) or per sampled source group, each with
	// its own findings accumulator, Router, Kernels and RNG stream,
	// merged back in source order. The decomposition is fixed by the
	// options alone, so the verdict does not depend on the worker
	// count or on goroutine scheduling.
	if n > opt.SampleAbove {
		rep.Sampled = true
		// Group sampled pairs by source so each source pays one BFS;
		// the last source absorbs the division remainder so exactly
		// SamplePairs pairs are checked.
		perSource := 64
		sources := opt.SamplePairs / perSource
		rem := opt.SamplePairs % perSource
		if sources < 1 {
			sources, perSource, rem = 1, opt.SamplePairs, 0
		}
		results := make([]shardResult, sources)
		runShards(opt.Workers, sources, func(s int) {
			results[s] = routesSampledShard(d, k, dg, ug, opt, s, sources, perSource, rem)
		})
		err = mergeShards(&rep, results, opt.MaxFindings)
		return rep, err
	}
	results := make([]shardResult, n)
	runShards(opt.Workers, n, func(s int) {
		results[s] = routesSourceShard(d, k, dg, ug, opt, uint64(s))
	})
	err = mergeShards(&rep, results, opt.MaxFindings)
	return rep, err
}

// routeScan holds the state of one Routes shard: the two explicit
// graphs, the reusable Router and Kernels, the rank-based replayer,
// and the BFS rows of the current source.
type routeScan struct {
	d, k     int
	dg, ug   *graph.Graph
	router   *core.Router
	kn       *core.Kernels
	rng      *rand.Rand
	opt      RoutesOptions
	f        *findings
	checked  int
	x        word.Word
	xv       int
	distDir  []int // BFS row from x in the directed graph
	distUndi []int // BFS row from x in the undirected graph
}

func newRouteScan(d, k int, dg, ug *graph.Graph, opt RoutesOptions, f *findings, salt int64) *routeScan {
	return &routeScan{
		d: d, k: k, dg: dg, ug: ug,
		router: core.NewRouter(k),
		kn:     core.NewKernels(core.KernelConfig{SyncTableBuild: true}),
		rng:    rand.New(rand.NewSource((opt.Seed ^ 0x1e3779b97f4a7c15) + salt)),
		opt:    opt, f: f,
	}
}

// routesSourceShard checks every pair with the source of the given
// rank — one BFS, one full target sweep.
func routesSourceShard(d, k int, dg, ug *graph.Graph, opt RoutesOptions, rank uint64) (res shardResult) {
	f := newFindings(opt.MaxFindings)
	sc := newRouteScan(d, k, dg, ug, opt, f, int64(rank)+1)
	x, err := word.Unrank(d, k, rank)
	if err != nil {
		res.err = fmt.Errorf("check: %w", err)
		return res
	}
	if err := sc.openSource(x); err != nil {
		res.err = err
		return res
	}
	if _, err := word.ForEach(d, k, func(y word.Word) bool {
		sc.checkPair(y)
		res.checked++
		return !f.full()
	}); err != nil {
		res.err = fmt.Errorf("check: %w", err)
		return res
	}
	res.findings, res.full = f.result(), f.full()
	return res
}

// routesSampledShard checks one sampled source group: the s-th source
// word and its perSource seeded targets (the last group absorbs the
// division remainder so the shards jointly check exactly SamplePairs
// pairs).
func routesSampledShard(d, k int, dg, ug *graph.Graph, opt RoutesOptions, s, sources, perSource, rem int) (res shardResult) {
	f := newFindings(opt.MaxFindings)
	sc := newRouteScan(d, k, dg, ug, opt, f, int64(s)+1)
	rng := rand.New(rand.NewSource(opt.Seed + int64(s)*0x2545F4914F6CDD1D))
	x := word.Random(d, k, rng)
	if err := sc.openSource(x); err != nil {
		res.err = err
		return res
	}
	pairs := perSource
	if s == sources-1 {
		pairs += rem
	}
	for t := 0; t < pairs && !f.full(); t++ {
		sc.checkPair(word.Random(d, k, rng))
		res.checked++
	}
	res.findings, res.full = f.result(), f.full()
	return res
}

// openSource fixes the pair source and computes its BFS rows.
func (sc *routeScan) openSource(x word.Word) error {
	sc.x = x
	sc.xv = graph.DeBruijnVertex(x)
	var err error
	if sc.distDir, err = sc.dg.BFSFrom(sc.xv); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if sc.distUndi, err = sc.ug.BFSFrom(sc.xv); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	return nil
}

// checkPair runs the full oracle battery on the pair (sc.x, y).
func (sc *routeScan) checkPair(y word.Word) {
	x, f := sc.x, sc.f
	yv := graph.DeBruijnVertex(y)
	sc.checked++

	// Directed: Property 1 and Algorithm 1 against BFS.
	wantDir := sc.distDir[yv]
	dd, err := core.DirectedDistance(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	if dd != wantDir {
		f.addf("directed-distance", "DG(%d,%d) D(%v,%v) = %d, BFS %d", sc.d, sc.k, x, y, dd, wantDir)
	}
	p1, err := core.RouteDirected(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	if !p1.OnlyLeftShifts() {
		f.addf("directed-route-shape", "DG(%d,%d) %v→%v: Algorithm 1 path %v uses a type-R hop", sc.d, sc.k, x, y, p1)
	}
	sc.replay("alg1", sc.dg, p1, y, wantDir)

	// Undirected: Theorem 2 and Algorithms 2/4 against BFS.
	wantUndi := sc.distUndi[yv]
	p2, err := core.RouteUndirected(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	p4, err := core.RouteUndirectedLinear(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	pr, err := sc.router.Route(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	pk, err := sc.kn.RouteUndirected(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	sc.replay("alg2", sc.ug, p2, y, wantUndi)
	for _, o := range []struct {
		alg string
		p   core.Path
	}{{"alg4", p4}, {"router", pr}, {"kernels", pk}} {
		if !slices.Equal(o.p, p2) {
			f.addf("undirected-route-canonical", "DG(%d,%d) %v→%v: %s path %v, Algorithm 2 path %v",
				sc.d, sc.k, x, y, o.alg, o.p, p2)
		}
	}

	// Explicit distance evaluations (route lengths already pin the
	// constructions; these pin the standalone closed forms). Thinned on
	// big graphs, where they would otherwise dominate the sweep.
	if sc.ug.NumVertices() > 1024 && sc.checked%sc.opt.DistanceStride != 0 {
		return
	}
	quad, err := core.UndirectedDistance(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	lin, err := core.UndirectedDistanceLinear(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	cor, err := core.UndirectedDistanceCorollary(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	rd, err := sc.router.Distance(x, y)
	if err != nil {
		sc.fail(err)
		return
	}
	if quad != wantUndi || lin != wantUndi || cor != wantUndi || rd != wantUndi {
		f.addf("undirected-distance",
			"DG(%d,%d) D(%v,%v): quadratic %d, linear %d, corollary %d, router %d, BFS %d",
			sc.d, sc.k, x, y, quad, lin, cor, rd, wantUndi)
	}
}

// fail records a routing call that returned a hard error — itself a
// divergence (the oracle inputs are all valid words of one DG(d,k)) —
// without aborting the rest of the scan.
func (sc *routeScan) fail(err error) {
	sc.f.addf("error", "%v", err)
}

// replay walks p from sc.x through g and verifies it reaches y in
// exactly want real link crossings. Paths with wildcard hops are
// replayed once per chooser the engines use: digit 0 (PolicyFirst),
// digit d-1, and a seeded random digit (PolicyRandom).
func (sc *routeScan) replay(alg string, g *graph.Graph, p core.Path, y word.Word, want int) {
	if len(p) != want {
		sc.f.addf(kindOracle(g, "route-length"),
			"DG(%d,%d) %v→%v: %s path %v has %d hops, BFS distance %d",
			sc.d, sc.k, sc.x, y, alg, p, len(p), want)
		return
	}
	if !p.HasWildcard() {
		sc.replayConcrete(alg, "concrete", g, p, y, func(int) byte { return 0 })
		return
	}
	sc.replayConcrete(alg, "chooser=zero", g, p, y, func(int) byte { return 0 })
	sc.replayConcrete(alg, "chooser=max", g, p, y, func(int) byte { return byte(sc.d - 1) })
	sc.replayConcrete(alg, "chooser=random", g, p, y, func(int) byte { return byte(sc.rng.Intn(sc.d)) })
}

// replayConcrete is the hop-by-hop walk on vertex ranks: rank
// arithmetic implements both shift moves in O(1) without allocating,
// and every crossing is checked against the explicit edge set — which
// catches phantom self-moves (self loops are removed from DG(d,k)) as
// well as outright non-edges. choose resolves the i-th hop's wildcard.
func (sc *routeScan) replayConcrete(alg, how string, g *graph.Graph, p core.Path, y word.Word, choose func(i int) byte) {
	d64, n64 := uint64(sc.d), uint64(g.NumVertices())
	hi := n64 / d64 // d^(k-1)
	cur := uint64(sc.xv)
	for i, h := range p {
		digit := h.Digit
		if h.Wildcard {
			digit = choose(i)
		}
		if uint64(digit) >= d64 {
			sc.f.addf(kindOracle(g, "route-digit"),
				"DG(%d,%d) %v→%v: %s path %v hop %d digit %d outside base %d",
				sc.d, sc.k, sc.x, y, alg, p, i, digit, sc.d)
			return
		}
		var next uint64
		switch h.Type {
		case core.TypeL:
			next = (cur*d64)%n64 + uint64(digit)
		case core.TypeR:
			next = uint64(digit)*hi + cur/d64
		default:
			sc.f.addf(kindOracle(g, "route-hop-type"),
				"DG(%d,%d) %v→%v: %s path %v hop %d has invalid type", sc.d, sc.k, sc.x, y, alg, p, i)
			return
		}
		if !g.HasEdge(int(cur), int(next)) {
			sc.f.addf(kindOracle(g, "route-replay"),
				"DG(%d,%d) %v→%v: %s path %v (%s) hop %d crosses %s→%s, not a link of the graph",
				sc.d, sc.k, sc.x, y, alg, p, how, i, sc.label(cur), sc.label(next))
			return
		}
		cur = next
	}
	if cur != uint64(graph.DeBruijnVertex(y)) {
		sc.f.addf(kindOracle(g, "route-endpoint"),
			"DG(%d,%d) %v→%v: %s path %v (%s) ends at %s", sc.d, sc.k, sc.x, y, alg, p, how, sc.label(cur))
	}
}

func (sc *routeScan) label(v uint64) string {
	w, err := word.Unrank(sc.d, sc.k, v)
	if err != nil {
		return fmt.Sprintf("#%d", v)
	}
	return w.String()
}

func kindOracle(g *graph.Graph, suffix string) string {
	if g.Kind() == graph.Directed {
		return "directed-" + suffix
	}
	return "undirected-" + suffix
}
