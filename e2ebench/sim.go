package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/word"
)

// The sim-e18 workload: E18 cells on the undirected DG(2,6). One cell
// is one of E18's five offered loads, run through every deflection
// policy plus the rate-matched store-and-forward open loop — the shape
// of experiments.DeflectSweep for one rate. Cells inject for simRounds
// rounds (E18's table uses 300), so that a run replays its cells
// several times.
const (
	simD, simK = 2, 6
	simRounds  = 16
	// simCycleCells are the cells of a run, forty seeds times the five
	// rates, so that the cells of one seed move a run's figures little.
	// Every timed pass runs all of them, in order.
	simCycleCells = 200
	simWarmCells  = len(e18Rates)
	// simNominalPass is the seconds one pass takes on a 2-vCPU Xeon VM
	// (see passCount).
	simNominalPass = 4.8
)

var e18Rates = [...]float64{0.05, 0.15, 0.30, 0.60, 0.90}

// arrivalSalt is the offset deflect.RunLoad applies to a cell's seed
// for its arrival stream; the layer replay draws the same arrivals. A
// variable only so that a test can make the replay diverge.
var arrivalSalt int64 = 0x5e3779b97f4a7c15

type cell struct {
	rate float64
	seed int64
}

// simCells returns the cells of one pass for a run seed.
func simCells(seed int64, n int) []cell {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]cell, n)
	var s int64
	for i := range cells {
		if i%len(e18Rates) == 0 {
			s = rng.Int63()
		}
		cells[i] = cell{rate: e18Rates[i%len(e18Rates)], seed: s}
	}
	return cells
}

// cellResult is everything one cell reports.
type cellResult struct {
	deflect []deflect.LoadResult // one per policy, in deflect.Policies order
	base    network.OpenLoopResult
	err     error
}

func runCell(c cell) cellResult {
	var r cellResult
	for _, pol := range deflect.Policies() {
		res, err := deflect.RunLoad(deflect.LoadConfig{
			D: simD, K: simK, Policy: pol, Rate: c.rate, Rounds: simRounds, Seed: c.seed,
		})
		if err != nil {
			r.err = err
			return r
		}
		r.deflect = append(r.deflect, res)
	}
	r.base, r.err = network.RunOpenLoop(network.OpenLoopConfig{
		D: simD, K: simK, Rate: c.rate, Rounds: simRounds, Seed: c.seed,
	})
	return r
}

// delivered is the cell's op count: messages delivered by all four runs.
func (r cellResult) delivered() int64 {
	n := int64(r.base.Delivered)
	for _, d := range r.deflect {
		n += int64(d.Delivered)
	}
	return n
}

var errConservation = errors.New("conservation identity violated")

// check verifies the cell's conservation identities: every offered
// message is injected or refused, every injected one delivered, dropped
// by the age guard or still in flight, nothing is left in flight after
// the drain, deflections are a subset of link crossings, and the open
// loop delivers every message it offered.
func (r cellResult) check() error {
	if r.err != nil {
		return r.err
	}
	for i, d := range r.deflect {
		s := d.Stats
		switch {
		case d.Offered != s.Injected+s.Refused:
			return fmt.Errorf("%w: policy %d offered %d != injected %d + refused %d", errConservation, i, d.Offered, s.Injected, s.Refused)
		case s.Injected != s.Delivered+s.GuardDropped+s.Inflight:
			return fmt.Errorf("%w: policy %d injected %d != delivered %d + dropped %d + inflight %d", errConservation, i, s.Injected, s.Delivered, s.GuardDropped, s.Inflight)
		case s.Inflight != 0:
			return fmt.Errorf("%w: policy %d left %d in flight", errConservation, i, s.Inflight)
		case s.Deflections > s.HopsMoved:
			return fmt.Errorf("%w: policy %d deflections %d > hops %d", errConservation, i, s.Deflections, s.HopsMoved)
		}
	}
	if r.base.Saturated || r.base.Delivered != r.base.Offered {
		return fmt.Errorf("%w: open loop delivered %d of %d (saturated %v)", errConservation, r.base.Delivered, r.base.Offered, r.base.Saturated)
	}
	return nil
}

// digest hashes every statistic the cell reports.
func (r cellResult) digest() uint64 {
	h := fnv.New64a()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, d := range r.deflect {
		s := d.Stats
		put(float64(d.Offered), float64(d.DrainRounds), float64(s.Rounds), float64(s.Injected), float64(s.Refused),
			float64(s.Delivered), float64(s.GuardDropped), float64(s.Inflight), float64(s.Deflections),
			float64(s.HopsMoved), s.MeanLatency, float64(s.P99Latency), float64(s.MaxLatency),
			s.MeanDeflections, s.DeflectionRate, s.Throughput)
	}
	b := r.base
	put(float64(b.Offered), float64(b.Delivered), b.MeanLatency, float64(b.P95Latency),
		float64(b.MaxLatency), b.MeanSlowdown)
	return h.Sum64()
}

// simChecker checks every cell result of a run: the identities, and a
// digest equal to the one the same cell gave on its first run.
type simChecker struct {
	digests           []uint64 // per cell of the pass; 0 = not yet seen
	attempted, failed int64
	firstErr          error
}

func newSimChecker(n int) *simChecker { return &simChecker{digests: make([]uint64, n)} }

func (c *simChecker) add(i int, r cellResult) {
	ops := r.delivered()
	err := r.check()
	if err == nil {
		d := r.digest()
		switch {
		case c.digests[i] == 0:
			c.digests[i] = d
		case c.digests[i] != d:
			err = fmt.Errorf("cell %d: stats digest %016x, earlier run of the cell gave %016x", i, d, c.digests[i])
		}
	}
	if ops == 0 {
		ops = 1 // a cell that failed before delivering still counts
	}
	c.attempted += ops
	if err != nil {
		c.failed += ops
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("cell %d: %w", i, err)
		}
	}
}

// runDigest hashes the per-cell digests: equal for equal seeds.
func (c *simChecker) runDigest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range c.digests {
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}

// cycle holds a run's cells and the latest result of each.
type cycle struct {
	cells   []cell
	results []cellResult
	warm    int
}

func newCycle(seed int64, tiny bool) *cycle {
	n, warm := simCycleCells, simWarmCells
	if tiny {
		n, warm = len(e18Rates), 1
	}
	return &cycle{cells: simCells(seed, n), results: make([]cellResult, n), warm: warm}
}

// run runs cells [from, to) in order on one OS thread, keeping each
// result, and returns one sample per cell: the CPU time the thread
// spent on it. A cell lasts tens of milliseconds, longer than the gaps
// between the preemptions of a shared machine, so its wall time would
// carry their share of stolen time; the thread's CPU time does not.
// With tr non-nil each cell is also a sim.cell span (wall time).
func (c *cycle) run(from, to int, tr *tracer, reqBase uint64) []sample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	samples := make([]sample, 0, to-from)
	for i := from; i < to; i++ {
		var s int64
		if tr != nil {
			s = tr.now()
		}
		t0 := threadCPU()
		c.results[i] = runCell(c.cells[i])
		us := micros(threadCPU() - t0)
		if tr != nil {
			tr.add(reqBase+uint64(i), spSimCell, -1, s, tr.now())
		}
		samples = append(samples, sample{us: us, ops: c.results[i].delivered()})
	}
	return samples
}

// check feeds the results of cells [from, to) to chk.
func (c *cycle) check(chk *simChecker, from, to int) {
	for i := from; i < to; i++ {
		chk.add(i, c.results[i])
	}
}

// setUpSim builds a run's cells and runs the warm-up cells.
func setUpSim(opts options) (func(), error) {
	c := newCycle(opts.seed, opts.tiny)
	c.run(0, c.warm, nil, 0)
	return func() {}, nil
}

func runSim(opts options, info io.Writer) (result, error) {
	if opts.trace {
		return runSimTraced(opts, info)
	}
	setup, setupWall, err := coldSetup(opts)
	if err != nil {
		return result{}, err
	}
	c := newCycle(opts.seed, opts.tiny)
	chk := newSimChecker(len(c.cells))
	c.run(0, c.warm, nil, 0)
	c.check(chk, 0, c.warm)
	win := window{cyclic: true}
	for i := passCount(opts.seconds, simNominalPass, opts.tiny); i > 0; i-- {
		win.timed(func() []sample { return c.run(0, len(c.cells), nil, 0) })
		c.check(chk, 0, len(c.cells))
		runtime.GC()
	}
	if chk.firstErr != nil {
		fmt.Fprintln(info, "# check failed:", chk.firstErr)
	}
	fmt.Fprintln(info, "# cell CPU", win.latencyLine())
	fmt.Fprintf(info, "# passes=%d delivered=%d window_s=%.3f steal_s=%.2f setup_wall_s=%.3f sim_digest=%016x error_rate=%g\n",
		len(win.passes), win.ops, win.dur.Seconds(), win.steal, setupWall.Seconds(), chk.runDigest(), ratio(chk.failed, chk.attempted))
	return result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   win.endToEnd(setup),
	}, nil
}

// simReplay replays cells layer by layer: each deflection run is
// driven round by round through deflect's public Engine, with every
// destination's NewLayers build and its Router.Distance calls timed
// on their own; the open loop is timed whole, with RouteUndirectedLinear
// timed per message it injects.
type simReplay struct {
	tr    *tracer
	kn    *core.Kernels
	sites []word.Word // vertex rank order, as network.RunOpenLoop lists them

	cells, layers     int64
	routerCalls       int64
	routerNs          int64
	coreNs            [3]int64
	coreN             int64
	deflections, hops int64
}

func newSimReplay(tr *tracer) (*simReplay, error) {
	n, err := word.Count(simD, simK)
	if err != nil {
		return nil, err
	}
	sites := make([]word.Word, n)
	for i := range sites {
		if sites[i], err = word.Unrank(simD, simK, uint64(i)); err != nil {
			return nil, err
		}
	}
	return &simReplay{tr: tr, kn: core.NewKernels(core.KernelConfig{SyncTableBuild: true}), sites: sites}, nil
}

// layersFor times NewLayers toward dst, then the Router.Distance calls
// it makes and the core.Kernels functions on the same pairs.
func (s *simReplay) layersFor(id uint64, g *graph.Graph, dst word.Word, parent int32) error {
	tr := s.tr
	a := tr.now()
	if _, err := deflect.NewLayers(g, dst); err != nil {
		return err
	}
	li := tr.add(id, spDeflectLayers, parent, a, tr.now())
	s.layers++

	r := core.NewRouter(simK)
	a = tr.now()
	for _, w := range s.sites {
		d, err := r.Distance(w, dst)
		if err != nil {
			return err
		}
		sink += d
	}
	b := tr.now()
	tr.add(id, spRouterDistance, li, a, b)
	s.routerNs += b - a
	s.routerCalls += int64(len(s.sites))

	t0 := tr.now()
	for _, w := range s.sites {
		d, _ := s.kn.UndirectedDistance(w, dst)
		sink += d
	}
	t1 := tr.now()
	for _, w := range s.sites {
		p, _ := s.kn.RouteUndirected(w, dst)
		sink += len(p)
	}
	t2 := tr.now()
	for _, w := range s.sites {
		if _, ok, _ := s.kn.NextHopUndirected(w, dst); ok {
			sink++
		}
	}
	t3 := tr.now()
	tr.add(id, spCoreDistance, -1, t0, t1)
	tr.add(id, spCoreRoute, -1, t1, t2)
	tr.add(id, spCoreNextHop, -1, t2, t3)
	s.coreNs[0] += t1 - t0
	s.coreNs[1] += t2 - t1
	s.coreNs[2] += t3 - t2
	s.coreN += int64(len(s.sites))
	return nil
}

// deflectRun drives one deflection run the way deflect.RunLoad does
// and returns its stats.
func (s *simReplay) deflectRun(id uint64, c cell, pol deflect.Policy) (deflect.Stats, error) {
	tr := s.tr
	e, err := deflect.New(deflect.Config{D: simD, K: simK, Policy: pol, Seed: c.seed})
	if err != nil {
		return deflect.Stats{}, err
	}
	arr := rand.New(rand.NewSource(c.seed ^ arrivalSalt))
	built := make(map[int]bool)
	var fresh []word.Word
	step := func() error {
		a := tr.now()
		if err := e.Step(); err != nil {
			return err
		}
		si := tr.add(id, spDeflectStep, -1, a, tr.now())
		// Step built the layers of every destination first seen since
		// the previous round; time those builds on their own.
		for _, dst := range fresh {
			if err := s.layersFor(id, e.Graph(), dst, si); err != nil {
				return err
			}
		}
		fresh = fresh[:0]
		return nil
	}
	n := e.NumSites()
	for r := 0; r < simRounds; r++ {
		for v := 0; v < n; v++ {
			if arr.Float64() >= c.rate {
				continue
			}
			dst := word.Random(simD, simK, arr)
			ok, err := e.Inject(e.Word(v), dst)
			if err != nil {
				return deflect.Stats{}, err
			}
			if dv := graph.DeBruijnVertex(dst); ok && !dst.Equal(e.Word(v)) && !built[dv] {
				built[dv] = true
				fresh = append(fresh, dst)
			}
		}
		if err := step(); err != nil {
			return deflect.Stats{}, err
		}
	}
	for drain := 0; e.Inflight() > 0; drain++ {
		if drain > e.Config().MaxAge {
			return deflect.Stats{}, fmt.Errorf("layer replay: drain exceeded %d rounds", e.Config().MaxAge)
		}
		if err := step(); err != nil {
			return deflect.Stats{}, err
		}
	}
	return e.Stats(), nil
}

// openLoop times network.RunOpenLoop, then RouteUndirectedLinear on
// each message it injected, drawn from the same seeded stream.
func (s *simReplay) openLoop(id uint64, c cell) (network.OpenLoopResult, int, error) {
	tr := s.tr
	a := tr.now()
	res, err := network.RunOpenLoop(network.OpenLoopConfig{D: simD, K: simK, Rate: c.rate, Rounds: simRounds, Seed: c.seed})
	if err != nil {
		return res, 0, err
	}
	oi := tr.add(id, spOpenLoop, -1, a, tr.now())
	rng := rand.New(rand.NewSource(c.seed))
	choose := func(int, word.Word, core.Hop) byte { return byte(rng.Intn(simD)) }
	injected := 0
	for round := 0; round < simRounds; round++ {
		for _, src := range s.sites {
			if rng.Float64() >= c.rate {
				continue
			}
			dst := word.Random(simD, simK, rng)
			t0 := tr.now()
			route, err := core.RouteUndirectedLinear(src, dst)
			tr.add(id, spRouteLinear, oi, t0, tr.now())
			if err != nil {
				return res, 0, err
			}
			if _, err := route.Concrete(src, choose); err != nil {
				return res, 0, err
			}
			injected++
		}
	}
	return res, injected, nil
}

// replay replays one cell and returns how many of its runs did not
// reproduce want, the cell's end-to-end result.
func (s *simReplay) replay(id uint64, c cell, want cellResult) (diverged int, err error) {
	for i, pol := range deflect.Policies() {
		st, err := s.deflectRun(id, c, pol)
		if err != nil {
			return 0, err
		}
		s.deflections += st.Deflections
		s.hops += st.HopsMoved
		if i >= len(want.deflect) || st != want.deflect[i].Stats {
			diverged++
		}
	}
	res, injected, err := s.openLoop(id, c)
	if err != nil {
		return 0, err
	}
	if injected != res.Offered || res != want.base {
		diverged++
	}
	s.cells++
	return diverged, nil
}

func runSimTraced(opts options, info io.Writer) (result, error) {
	c := newCycle(opts.seed, opts.tiny)
	chk := newSimChecker(len(c.cells))
	c.run(0, c.warm, nil, 0)
	c.check(chk, 0, c.warm)
	tr := newTracer()
	sr, err := newSimReplay(tr)
	if err != nil {
		return result{}, err
	}
	var (
		mem                      memDelta
		untracedCost, tracedCost []float64
	)
	from, to := 0, len(c.cells)
	for pass, n := 0, passCount(opts.seconds, simNominalPass, opts.tiny); pass < n; pass++ {
		base := uint64(pass) << 32
		t0 := time.Now()
		if pass%2 == 0 {
			mem.start()
			ops := opsOf(c.run(from, to, nil, 0))
			d := time.Since(t0)
			mem.stop(ops)
			untracedCost = append(untracedCost, float64(d)/float64(ops))
			c.check(chk, from, to)
		} else {
			ops := opsOf(c.run(from, to, tr, base))
			tracedCost = append(tracedCost, float64(time.Since(t0))/float64(ops))
			c.check(chk, from, to)
			// A replay that does not reproduce its cell times other
			// work than the cell's: its ops count as failed.
			for i := from; i < to; i++ {
				diverged, err := sr.replay(base+uint64(i), c.cells[i], c.results[i])
				if err != nil {
					return result{}, fmt.Errorf("layer replay of cell %d: %w", i, err)
				}
				ops := max(c.results[i].delivered(), 1)
				chk.attempted += ops
				if diverged > 0 {
					chk.failed += ops
					if chk.firstErr == nil {
						chk.firstErr = fmt.Errorf("cell %d: the layer replay differed from deflect.RunLoad / network.RunOpenLoop in %d runs", i, diverged)
					}
				}
			}
		}
		runtime.GC()
	}
	if chk.firstErr != nil {
		fmt.Fprintln(info, "# check failed:", chk.firstErr)
	}

	st := tr.stats()
	m := layerMetrics()
	set(m, "core.tier", tierCode(sr.kn.TierFor(simD, simK)))
	dist := ratio(sr.coreNs[0], sr.coreN) / 1e3
	route := ratio(sr.coreNs[1], sr.coreN) / 1e3
	set(m, "core.distance_us", dist)
	set(m, "core.route_us", route)
	set(m, "core.nexthop_us", ratio(sr.coreNs[2], sr.coreN)/1e3)
	if dist > 0 {
		set(m, "core.route_over_distance", route/dist)
	}
	set(m, "core.router_distance_us", ratio(sr.routerNs, sr.routerCalls)/1e3)
	set(m, "core.route_linear_us", st[spRouteLinear].meanUS())
	set(m, "deflect.layers_build_us", st[spDeflectLayers].meanUS())
	set(m, "deflect.step_self_us", st[spDeflectStep].selfUS())
	set(m, "deflect.layers_per_cell", ratio(sr.layers, sr.cells))
	set(m, "deflect.deflection_rate", ratio(sr.deflections, sr.hops))
	set(m, "network.openloop_us", st[spOpenLoop].meanUS())
	mem.metrics(m)
	set(m, "bench.trace_overhead_frac", overhead(tracedCost, untracedCost))

	printStats(info, st)
	cellMean := st[spSimCell].meanUS()
	fmt.Fprintf(info, "# sim.cell breakdown, mean us per cell over %d replayed cells\n", sr.cells)
	perCell := func(name spanName, self bool) float64 {
		v := float64(st[name].total)
		if self {
			v = float64(st[name].own)
		}
		return v / float64(max(sr.cells, 1)) / 1e3
	}
	parts := []struct {
		name string
		us   float64
	}{
		{"deflect.step (self)", perCell(spDeflectStep, true)},
		{"deflect.layers (self)", perCell(spDeflectLayers, true)},
		{"core.router_distance", perCell(spRouterDistance, false)},
		{"network.openloop (self)", perCell(spOpenLoop, true)},
		{"core.route_linear", perCell(spRouteLinear, false)},
	}
	sum := 0.0
	for _, p := range parts {
		sum += p.us
		fmt.Fprintf(info, "#   %-34s %10.3f us %6.1f%%\n", p.name, p.us, 100*p.us/cellMean)
	}
	fmt.Fprintf(info, "#   %-34s %10.3f us %6.1f%%  (engine set-up, arrivals, drain bookkeeping)\n", "unaccounted", cellMean-sum, 100*(cellMean-sum)/cellMean)
	fmt.Fprintf(info, "#   %-34s %10.3f us\n", "sim.cell", cellMean)
	if path, err := tr.writeSpans(opts.spansDir, "sim-e18"); err != nil {
		fmt.Fprintln(info, "# spans not written:", err)
	} else if path != "" {
		fmt.Fprintf(info, "# %d spans written to %s\n", len(tr.spans), path)
	}
	fmt.Fprintf(info, "# sim_digest=%016x error_rate=%g\n", chk.runDigest(), ratio(chk.failed, chk.attempted))
	return result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}, nil
}
