package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

// serveWorkload is a closed loop of one client on one TCP loopback
// connection against an in-process serve.Server with the dbserve
// defaults.
type serveWorkload struct {
	name string
	k    int
	// batch is the sub-queries per batch request; 0 sends scalar
	// requests.
	batch int
	// passReqs is the requests of one pass.
	passReqs int
	// cyclic replays one fixed pass; otherwise every pass continues
	// the seeded stream.
	cyclic bool
	// routeFrac and nextHopFrac split the queries by kind; the rest
	// ask for distances.
	routeFrac, nextHopFrac float64
	// pool > 0 draws src and dst Zipf(zipfS)-skewed over a pool of that
	// many random words; 0 draws uniform random words.
	pool  int
	zipfS float64
	// warmPasses are replayed untimed before the timed window.
	warmPasses int
	// nominalPass is the seconds one pass takes on a 2-vCPU Xeon VM;
	// it sizes the fixed pass count of a run (passCount).
	nominalPass float64
}

var (
	// scalarZipf: the cache answers about 82% of lookups, so a request
	// costs mostly codec, transport and admission.
	scalarZipf = serveWorkload{
		name: "scalar-zipf-k64", k: 64, passReqs: 4096,
		routeFrac: 0.5, nextHopFrac: 0.2,
		pool: 1024, zipfS: 1.5, warmPasses: 2, nominalPass: 0.3,
	}
	// batchUniform: one fixed pass of 272·16 = 4352 distinct uniform
	// sub-queries, more than the cache's 4096 answers, replayed in
	// order, so that LRU misses on every lookup.
	batchUniform = serveWorkload{
		name: "batch-uniform-k256", k: 256, batch: 16, passReqs: 272,
		cyclic: true, routeFrac: 0.5, warmPasses: 1, nominalPass: 0.5,
	}
)

// serverConfig is the dbserve default configuration.
func serverConfig(reg *obs.Registry) serve.Config {
	return serve.Config{
		CacheSize:       4096,
		QueueDepth:      1024,
		DefaultDeadline: 100 * time.Millisecond,
		Registry:        reg,
	}
}

// op is one scalar query of a pass and the record of its answers.
type op struct {
	q   serve.Query
	exp *expect
}

// pass is a fixed sequence of requests.
type pass struct {
	reqs []serve.Request
	ops  [][]op // ops[i]: the queries of request i, one unless batched
	nops int64
}

// generator draws the passes of one run from its seed.
type generator struct {
	w     *serveWorkload
	rng   *rand.Rand
	zipf  *rand.Zipf
	pool  []word.Word
	book  *answerBook
	reqs  int
	fixed *pass
}

func (w *serveWorkload) newGenerator(seed int64, tiny bool, book *answerBook) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed)), book: book, reqs: w.passReqs}
	if tiny {
		g.reqs = 8
	}
	if w.pool > 0 {
		g.pool = make([]word.Word, w.pool)
		for i := range g.pool {
			g.pool[i] = word.Random(2, w.k, g.rng)
		}
		g.zipf = rand.NewZipf(g.rng, w.zipfS, 1, uint64(w.pool-1))
	}
	return g
}

func (g *generator) word() word.Word {
	if g.zipf != nil {
		return g.pool[g.zipf.Uint64()]
	}
	return word.Random(2, g.w.k, g.rng)
}

func (g *generator) query() serve.Query {
	kind := serve.KindDistance
	switch u := g.rng.Float64(); {
	case u < g.w.routeFrac:
		kind = serve.KindRoute
	case u < g.w.routeFrac+g.w.nextHopFrac:
		kind = serve.KindNextHop
	}
	src := g.word()
	dst := g.word()
	for dst.Equal(src) {
		dst = g.word()
	}
	return undirected(kind, src, dst)
}

func wireRequest(q serve.Query) serve.Request {
	switch q.Kind {
	case serve.KindRoute:
		return serve.RouteRequest(q.Src, q.Dst, q.Mode)
	case serve.KindNextHop:
		return serve.NextHopRequest(q.Src, q.Dst, q.Mode)
	default:
		return serve.DistanceRequest(q.Src, q.Dst, q.Mode)
	}
}

// next returns the next pass of the run.
func (g *generator) next() *pass {
	if g.fixed != nil {
		return g.fixed
	}
	p := &pass{reqs: make([]serve.Request, g.reqs), ops: make([][]op, g.reqs)}
	for i := range p.reqs {
		n := max(g.w.batch, 1)
		ops := make([]op, n)
		for j := range ops {
			q := g.query()
			ops[j] = op{q: q, exp: g.book.lookup(q)}
		}
		p.ops[i] = ops
		p.nops += int64(n)
		if g.w.batch == 0 {
			p.reqs[i] = wireRequest(ops[0].q)
			continue
		}
		items := make([]serve.Request, n)
		for j := range ops {
			items[j] = wireRequest(ops[j].q)
		}
		p.reqs[i] = serve.BatchRequest(items...)
	}
	if g.w.cyclic {
		g.fixed = p
	}
	return p
}

// harness is one server listening on TCP loopback and one client
// connected to it.
type harness struct {
	// ctx bounds every request by the run's deadline, so that a stalled
	// connection fails the remaining requests instead of hanging.
	ctx    context.Context
	cancel context.CancelFunc
	reg    *obs.Registry
	srv    *serve.Server
	served chan error
	client *serve.Client
	lat    []time.Duration
	resps  []serve.Response
}

func startHarness(deadline time.Time) (*harness, error) {
	reg := obs.NewRegistry()
	srv := serve.NewServer(serverConfig(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{reg: reg, srv: srv, served: make(chan error, 1)}
	go func() { h.served <- srv.Serve(ln) }()
	h.client, err = serve.Dial(ln.Addr().String())
	if err != nil {
		srv.Close()
		<-h.served
		return nil, err
	}
	h.ctx, h.cancel = context.WithDeadline(context.Background(), deadline)
	return h, nil
}

func (h *harness) close() {
	h.cancel()
	h.client.Close()
	h.srv.Close()
	<-h.served
}

// replay sends every request of p in a closed loop, keeping each round
// trip in h.lat and each response in h.resps. With tr non-nil it also
// records a client.rtt span per request.
func (h *harness) replay(p *pass, tr *tracer, reqBase uint64) {
	n := len(p.reqs)
	if cap(h.lat) < n {
		h.lat = make([]time.Duration, n)
		h.resps = make([]serve.Response, n)
	}
	h.lat, h.resps = h.lat[:n], h.resps[:n]
	for i := range p.reqs {
		var s int64
		if tr != nil {
			s = tr.now()
		}
		t0 := time.Now()
		resp, err := h.client.Do(h.ctx, p.reqs[i])
		h.lat[i] = time.Since(t0)
		if tr != nil {
			tr.add(reqBase+uint64(i), spClientRTT, -1, s, tr.now())
		}
		if err != nil {
			resp = serve.Response{Status: "transport: " + err.Error()}
		}
		h.resps[i] = resp
	}
}

// setUp builds the generator and harness of one run and replays the
// warm-up passes, folding their failures into *failed.
func (w *serveWorkload) setUp(opts options, book *answerBook, attempted, failed *int64) (*generator, *harness, error) {
	g := w.newGenerator(opts.seed, opts.tiny, book)
	h, err := startHarness(opts.deadline)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < w.warmPasses; i++ {
		p := g.next()
		h.replay(p, nil, 0)
		*attempted += p.nops
		*failed += book.account(p, h.resps)
	}
	return g, h, nil
}

// setUpOnly is setUp in a set-up child, which checks no answers.
func (w *serveWorkload) setUpOnly(opts options) (func(), error) {
	var attempted, failed int64
	_, h, err := w.setUp(opts, newAnswerBook(), &attempted, &failed)
	if err != nil {
		return nil, err
	}
	return h.close, nil
}

func (w *serveWorkload) run(opts options, info io.Writer) (result, error) {
	if opts.trace {
		return w.runTraced(opts, info)
	}
	setup, setupWall, err := coldSetup(opts)
	if err != nil {
		return result{}, err
	}
	book := newAnswerBook()
	var attempted, failed int64
	g, h, err := w.setUp(opts, book, &attempted, &failed)
	if err != nil {
		return result{}, err
	}
	defer h.close()

	win := window{cyclic: w.cyclic}
	for i := passCount(opts.seconds, w.nominalPass, opts.tiny); i > 0; i-- {
		p := g.next()
		win.timed(func() []sample {
			h.replay(p, nil, 0)
			return p.samples(h.lat)
		})
		attempted += p.nops
		failed += book.account(p, h.resps)
		book.verify()
		// The checks' garbage is the benchmark's, not the server's:
		// collect it before the next pass is timed.
		runtime.GC()
	}
	book.verify()
	failed += book.failed
	for _, err := range book.errs {
		fmt.Fprintln(info, "# check failed:", err)
	}
	fmt.Fprintln(info, "#", win.latencyLine())
	snap := h.reg.Snapshot()
	hits := snap.Counter("dn_serve_cache_hits_total")
	misses := snap.Counter("dn_serve_cache_misses_total")
	fmt.Fprintf(info, "# passes=%d ops=%d window_s=%.3f steal_s=%.2f check_s=%.3f setup_wall_s=%.3f cache_hit_ratio=%.4f error_rate=%g distinct_queries=%d\n",
		len(win.passes), win.ops, win.dur.Seconds(), win.steal, book.took.Seconds(), setupWall.Seconds(), ratio(hits, hits+misses), ratio(failed, attempted), len(book.m))
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   win.endToEnd(setup),
	}, nil
}

// samples pairs each request's round trip with its op count.
func (p *pass) samples(lat []time.Duration) []sample {
	out := make([]sample, len(lat))
	for i, d := range lat {
		out[i] = sample{us: micros(d), ops: int64(len(p.ops[i]))}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerReplay answers a pass layer by layer in one goroutine, through
// the public calls of each layer, with its own engine and cache. The
// cache sees exactly the server's sequence of lookups (the warm-up and
// every pass are also fed to it), so it hits and misses where the
// server's did.
type layerReplay struct {
	eng        *serve.Engine
	kn         *core.Kernels // kernel calls timed on their own
	tr         *tracer
	wire, back bytes.Buffer
	qs         []serve.Query
	answers    []serve.Answer
	cached     []bool
	opNs       []int64
	resps      []serve.Response

	hitNs, missNs               int64
	hits, misses                int64
	reqBytes, respBytes, frames int64
	coreNs                      [3]int64 // distance, route, next hop
	coreN                       int64
}

func newLayerReplay(tr *tracer) *layerReplay {
	return &layerReplay{
		eng: serve.NewEngine(serve.NewCache(4096, nil)),
		kn:  core.NewKernels(core.KernelConfig{}),
		tr:  tr,
	}
}

// sink keeps timed calls' results alive.
var sink int

// shadow feeds p's lookups to the replay's cache without timing them.
func (l *layerReplay) shadow(p *pass) {
	for _, ops := range p.ops {
		qs := l.qs[:0]
		for _, o := range ops {
			qs = append(qs, o.q)
		}
		l.qs = qs
		l.answer(qs)
	}
}

// answer runs the engine on one request's queries the way a server
// worker does, filling l.answers, l.cached and the per-op times.
func (l *layerReplay) answer(qs []serve.Query) error {
	l.answers, l.cached, l.opNs = l.answers[:0], l.cached[:0], l.opNs[:0]
	if len(qs) == 1 {
		t0 := time.Now()
		a, c, err := l.eng.Answer(qs[0], serve.LevelFull)
		l.opNs = append(l.opNs, int64(time.Since(t0)))
		l.answers, l.cached = append(l.answers, a), append(l.cached, c)
		return err
	}
	t0 := time.Now()
	l.eng.BeginBatch(qs)
	share := int64(time.Since(t0)) / int64(len(qs))
	for j, q := range qs {
		t := time.Now()
		a, c, err := l.eng.AnswerBatchTraced(j, q, serve.LevelFull, nil)
		if err != nil {
			return err
		}
		l.opNs = append(l.opNs, int64(time.Since(t))+share)
		l.answers, l.cached = append(l.answers, a), append(l.cached, c)
	}
	return nil
}

// kernel repeats, on its own, the kernel work Engine.compute does for
// a missed query.
func (l *layerReplay) kernel(q serve.Query) {
	if q.Kind == serve.KindNextHop {
		if _, ok, _ := l.kn.NextHopUndirected(q.Src, q.Dst); ok {
			sink++
		}
		return
	}
	d, _ := l.kn.UndirectedDistance(q.Src, q.Dst)
	sink += d
	if q.Kind == serve.KindRoute {
		p, _ := l.kn.RouteUndirected(q.Src, q.Dst)
		sink += len(p)
	}
}

// probe times the three undirected kernels on one pair.
func (l *layerReplay) probe(req uint64, q serve.Query) {
	tr := l.tr
	t0 := tr.now()
	d, _ := l.kn.UndirectedDistance(q.Src, q.Dst)
	t1 := tr.now()
	p, _ := l.kn.RouteUndirected(q.Src, q.Dst)
	t2 := tr.now()
	_, ok, _ := l.kn.NextHopUndirected(q.Src, q.Dst)
	t3 := tr.now()
	sink += d + len(p)
	if ok {
		sink++
	}
	tr.add(req, spCoreDistance, -1, t0, t1)
	tr.add(req, spCoreRoute, -1, t1, t2)
	tr.add(req, spCoreNextHop, -1, t2, t3)
	l.coreNs[0] += t1 - t0
	l.coreNs[1] += t2 - t1
	l.coreNs[2] += t3 - t2
	l.coreN++
}

// wireAnswer is the response a server worker builds from an answer.
func wireAnswer(id uint64, kind serve.Kind, a serve.Answer, cached bool) serve.Response {
	r := serve.Response{ID: id, Status: serve.StatusOK, Degrade: a.Level.DegradeString(), Cached: cached, Distance: a.Distance}
	switch kind {
	case serve.KindRoute:
		r.Path = make([]string, len(a.Path))
		for i, h := range a.Path {
			r.Path[i] = serve.FormatHop(h)
		}
	case serve.KindNextHop:
		if a.HasHop {
			r.NextHop = serve.FormatHop(a.Hop)
		} else {
			r.Done = true
		}
	}
	return r
}

// replay answers every request of p layer by layer: client encode →
// server decode → engine (kernel child on misses) → server encode →
// client decode, one span each, then probes the kernels on every pair.
func (l *layerReplay) replay(p *pass, reqBase uint64) {
	if cap(l.resps) < len(p.reqs) {
		l.resps = make([]serve.Response, len(p.reqs))
	}
	l.resps = l.resps[:len(p.reqs)]
	for i := range p.reqs {
		id := reqBase + uint64(i)
		req := p.reqs[i]
		req.ID = id
		l.resps[i] = l.one(id, req, p.ops[i])
		for _, o := range p.ops[i] {
			l.probe(id, o.q)
		}
	}
}

func (l *layerReplay) one(id uint64, req serve.Request, ops []op) serve.Response {
	tr := l.tr
	fail := func(err error) serve.Response {
		return serve.Response{ID: id, Status: serve.StatusError, Error: err.Error()}
	}

	t0 := tr.now()
	l.wire.Reset()
	if err := serve.WriteFrame(&l.wire, &req); err != nil {
		return fail(err)
	}
	t1 := tr.now()
	tr.add(id, spClientEncode, -1, t0, t1)
	l.reqBytes += int64(l.wire.Len())
	l.frames++

	body, err := serve.ReadFrame(&l.wire, 0)
	if err != nil {
		return fail(err)
	}
	parsed, err := serve.ParseRequest(body)
	if err != nil {
		return fail(err)
	}
	subs := parsed.Batch
	if len(subs) == 0 {
		subs = []serve.Request{parsed}
	}
	if len(subs) != len(ops) {
		return fail(fmt.Errorf("request %d decoded into %d queries, sent %d", id, len(subs), len(ops)))
	}
	qs := l.qs[:0]
	for j := range subs {
		q, err := serve.ParseQuery(subs[j])
		if err != nil {
			return fail(err)
		}
		qs = append(qs, q)
	}
	l.qs = qs
	t2 := tr.now()
	tr.add(id, spServerDecode, -1, t1, t2)

	if err := l.answer(qs); err != nil {
		return fail(err)
	}
	t3 := tr.now()
	eng := tr.add(id, spEngine, -1, t2, t3)
	for j := range ops {
		if l.cached[j] {
			l.hitNs += l.opNs[j]
			l.hits++
			continue
		}
		l.missNs += l.opNs[j]
		l.misses++
		s := tr.now()
		l.kernel(qs[j])
		tr.add(id, spKernel, eng, s, tr.now())
	}

	var resp serve.Response
	if len(parsed.Batch) == 0 {
		resp = wireAnswer(id, qs[0].Kind, l.answers[0], l.cached[0])
	} else {
		resp = serve.Response{ID: id, Status: serve.StatusOK, Batch: make([]serve.Response, len(ops))}
		for j := range ops {
			resp.Batch[j] = wireAnswer(parsed.Batch[j].ID, qs[j].Kind, l.answers[j], l.cached[j])
		}
	}
	t4 := tr.now()
	l.back.Reset()
	if err := serve.WriteFrame(&l.back, &resp); err != nil {
		return fail(err)
	}
	t5 := tr.now()
	tr.add(id, spServerEncode, -1, t4, t5)
	l.respBytes += int64(l.back.Len())

	body, err = serve.ReadFrame(&l.back, 0)
	if err != nil {
		return fail(err)
	}
	var out serve.Response
	if err := json.Unmarshal(body, &out); err != nil {
		return fail(err)
	}
	tr.add(id, spClientDecode, -1, t5, tr.now())
	return out
}

// runTraced is the traced run: passes alternate between an untraced
// end-to-end replay and a traced one; the traced pass is then replayed
// layer by layer.
func (w *serveWorkload) runTraced(opts options, info io.Writer) (result, error) {
	book := newAnswerBook()
	var attempted, failed int64
	g, h, err := w.setUp(opts, book, &attempted, &failed)
	if err != nil {
		return result{}, err
	}
	defer h.close()
	tr := newTracer()
	lr := newLayerReplay(tr)
	// The layer replay's cache has to see the warm-up too.
	warm := w.newGenerator(opts.seed, opts.tiny, newAnswerBook())
	for i := 0; i < w.warmPasses; i++ {
		lr.shadow(warm.next())
	}

	var (
		mem                      memDelta
		untracedCost, tracedCost []float64 // ns per op, per pass
		rtt                      []float64
		tracedReqs, tracedOps    int64
		hits, misses, evicts     int64
		serverLat                obs.HistogramSnapshot
	)
	for pass, n := 0, passCount(opts.seconds, w.nominalPass, opts.tiny); pass < n; pass++ {
		p := g.next()
		base := uint64(pass) << 32
		t0 := time.Now()
		if pass%2 == 0 {
			mem.start()
			h.replay(p, nil, 0)
			d := time.Since(t0)
			mem.stop(p.nops)
			untracedCost = append(untracedCost, float64(d)/float64(p.nops))
			attempted += p.nops
			failed += book.account(p, h.resps)
			lr.shadow(p)
		} else {
			s0 := h.reg.Snapshot()
			h.replay(p, tr, base)
			d := time.Since(t0)
			s1 := h.reg.Snapshot().Diff(s0)
			tracedCost = append(tracedCost, float64(d)/float64(p.nops))
			for _, l := range h.lat {
				rtt = append(rtt, micros(l))
			}
			tracedReqs += int64(len(p.reqs))
			tracedOps += p.nops
			hits += s1.Counter("dn_serve_cache_hits_total")
			misses += s1.Counter("dn_serve_cache_misses_total")
			evicts += s1.Counter("dn_serve_cache_evictions_total")
			lat := s1.Histogram("dn_serve_latency_ns")
			serverLat.Sum += lat.Sum
			serverLat.Count += lat.Count
			attempted += p.nops
			failed += book.account(p, h.resps)

			lr.replay(p, base)
			attempted += p.nops
			failed += book.account(p, lr.resps)
		}
		book.verify()
		runtime.GC()
	}
	book.verify()
	failed += book.failed
	for _, err := range book.errs {
		fmt.Fprintln(info, "# check failed:", err)
	}

	st := tr.stats()
	m := layerMetrics()
	set(m, "serve.client_encode_us", st[spClientEncode].meanUS())
	set(m, "serve.server_decode_us", st[spServerDecode].meanUS())
	set(m, "serve.server_encode_us", st[spServerEncode].meanUS())
	set(m, "serve.client_decode_us", st[spClientDecode].meanUS())
	set(m, "serve.request_bytes", ratio(lr.reqBytes, lr.frames))
	set(m, "serve.response_bytes", ratio(lr.respBytes, lr.frames))
	set(m, "serve.engine_hit_us", ratio(lr.hitNs, lr.hits)/1e3)
	set(m, "serve.engine_miss_us", ratio(lr.missNs, lr.misses)/1e3)
	set(m, "serve.cache_hit_ratio", ratio(hits, hits+misses))
	set(m, "serve.cache_evictions_per_op", ratio(evicts, tracedOps))
	serverMean := 0.0
	if serverLat.Count > 0 {
		serverMean = serverLat.Sum / float64(serverLat.Count) / 1e3
	}
	set(m, "serve.server_latency_mean_us", serverMean)
	engineMean := st[spEngine].meanUS()
	queueWait := serverMean - st[spServerDecode].meanUS() - engineMean
	set(m, "serve.queue_wait_us", queueWait)
	rttMean := st[spClientRTT].meanUS()
	kernelPerReq := 0.0
	if st[spEngine].n > 0 {
		kernelPerReq = float64(st[spKernel].total) / float64(st[spEngine].n) / 1e3
	}
	parts := []struct {
		name string
		us   float64
	}{
		{"serve.client_encode", st[spClientEncode].selfUS()},
		{"serve.server_decode", st[spServerDecode].selfUS()},
		{"serve.queue_wait", queueWait},
		{"serve.engine (self)", st[spEngine].selfUS()},
		{"core.kernel (child of engine)", kernelPerReq},
		{"serve.server_encode", st[spServerEncode].selfUS()},
		{"serve.client_decode", st[spClientDecode].selfUS()},
	}
	sum := 0.0
	for _, p := range parts {
		sum += p.us
	}
	unaccounted := rttMean - sum
	set(m, "serve.rtt_unaccounted_us", unaccounted)

	set(m, "core.tier", tierCode(lr.kn.TierFor(2, w.k)))
	dist := ratio(lr.coreNs[0], lr.coreN) / 1e3
	route := ratio(lr.coreNs[1], lr.coreN) / 1e3
	set(m, "core.distance_us", dist)
	set(m, "core.route_us", route)
	set(m, "core.nexthop_us", ratio(lr.coreNs[2], lr.coreN)/1e3)
	if dist > 0 {
		set(m, "core.route_over_distance", route/dist)
	}
	mem.metrics(m)
	set(m, "bench.trace_overhead_frac", overhead(tracedCost, untracedCost))

	printStats(info, st)
	fmt.Fprintf(info, "# client.rtt breakdown, mean us per request over %d traced requests (rtt p50 %.3f us)\n", tracedReqs, median(rtt))
	for _, p := range parts {
		fmt.Fprintf(info, "#   %-34s %10.3f us %6.1f%%\n", p.name, p.us, 100*p.us/rttMean)
	}
	fmt.Fprintf(info, "#   %-34s %10.3f us %6.1f%%  (TCP loopback + goroutine hand-offs)\n", "unaccounted", unaccounted, 100*unaccounted/rttMean)
	fmt.Fprintf(info, "#   %-34s %10.3f us\n", "client.rtt", rttMean)
	if path, err := tr.writeSpans(opts.spansDir, w.name); err != nil {
		fmt.Fprintln(info, "# spans not written:", err)
	} else if path != "" {
		fmt.Fprintf(info, "# %d spans written to %s\n", len(tr.spans), path)
	}
	fmt.Fprintf(info, "# error_rate=%g\n", ratio(failed, attempted))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tierCode maps a kernel tier to the reported code: 1 table, 2 packed,
// 3 scratch.
func tierCode(t core.Tier) float64 {
	switch t {
	case core.TierTable:
		return 1
	case core.TierPacked:
		return 2
	default:
		return 3
	}
}
