package check

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ChaosOptions parameterizes the adversarial-serving oracle.
type ChaosOptions struct {
	// Seed drives the chaos schedules and workloads; a fixed seed makes
	// the whole sweep — fault timing included — reproducible, and the
	// verdict byte-identical across runs.
	Seed int64
	// Requests per grid cell (0 means 300; otherwise at least
	// MinChaosRequests).
	Requests int
	// MaxFindings caps the findings per report (0 means 32).
	MaxFindings int
}

// MinChaosRequests is the smallest per-cell request count the chaos
// cells accept: the grid splits a cell over 4 load clients, and a
// share of 0 would fall back to the load generator's own default.
const MinChaosRequests = 4

// drainTimeout bounds every drain poll: a cell's ledger balancing and
// its goroutines winding down after teardown.
const drainTimeout = 15 * time.Second

// Chaos sweeps a grid of workload shapes × fault schedules through the
// ChaosTransport and re-derives the serving contract under each cell:
//
//   - every admitted request resolves to exactly one labelled outcome
//     (sent = answered + degraded + shed, exactly, after drain), and
//     the client-side ledger balances too;
//   - no answer lies: a full-fidelity or distance-degraded response
//     matches a clean engine exactly, a bounds-degraded response
//     brackets the true distance, and a cached answer is never
//     degraded;
//   - the process drains: once the load and the server are gone, the
//     goroutine count returns to its pre-cell baseline — a wedged
//     writer or a parked reader is a leak, not an accident.
//
// The grid crosses four load shapes (uniform closed-loop, Zipf+hotspot
// skew, a flash-crowd rate schedule, a batch/scalar mix) with five
// fault schedules (a clean-link control, latency+jitter, drop+corrupt,
// sever-mid-frame, slow-reader throttling). Two cluster cells extend
// the sweep to the fabric: chaos on every link of a live cluster
// (outcome conservation stays exact per node; the hop identity relaxes
// to Σ forwarded ≤ Σ forwarded_in), and a churn storm — a correlated
// kill burst plus joins under load on clean links — where the same
// relaxed identities must hold with the victims' final counts folded
// in. E24 tabulates the same grid and storm cells (ChaosGrid,
// ChaosStorm).
//
// Serving behavior does not vary with the query graph, so like the
// cluster oracle this mode runs once on DG(2,8), not per (d,k). Every
// cell contributes a fixed number of assertions, so Checked — and a
// clean Report — is deterministic for a fixed seed.
func Chaos(opt ChaosOptions) (Report, error) {
	rep := Report{Mode: "chaos", D: 2, K: 8}
	if opt.Requests == 0 {
		opt.Requests = 300
	}
	f := newFindings(opt.MaxFindings)
	x := &chaosScan{opt: opt, f: f}
	for _, unit := range []func() error{x.grid, x.fabric, x.storm} {
		if err := unit(); err != nil {
			return rep, err
		}
		if f.full() {
			break
		}
	}
	rep.Checked = x.checked
	rep.Findings = f.result()
	rep.Truncated = f.full()
	return rep, nil
}

type chaosScan struct {
	opt     ChaosOptions
	f       *findings
	checked int
}

func (x *chaosScan) assert(ok bool, format string, args ...any) {
	x.checked++
	if !ok {
		x.f.addf("chaos-serving", format, args...)
	}
}

// grid asserts the fixed contract on every grid cell: conservation on
// both ledgers, no lying answers, no leaked goroutines.
func (x *chaosScan) grid() error {
	return ChaosGrid(x.opt.Seed, x.opt.Requests, func(l ChaosLedger) bool {
		name := l.Shape + "/" + l.Schedule
		v := l.lies
		x.assert(l.Load.Conserved(), "%s: client ledger broken: %+v", name, l.Load)
		x.assert(l.Load.Completed > 0, "%s: nothing completed through the chaotic link", name)
		x.assert(l.Settled, "%s: server ledger never balanced after drain: %+v", name, l.Counts)
		x.assert(v.cachedDegraded == 0, "%s: %d cached answers served degraded (first: %s)",
			name, v.cachedDegraded, v.firstCached)
		x.assert(v.wrong == 0, "%s: %d answers disagree with the clean engine (first: %s)",
			name, v.wrong, v.firstWrong)
		x.assert(v.invalid == 0, "%s: %d malformed responses (first: %s)",
			name, v.invalid, v.firstInvalid)
		x.assertDrained(name, l.Baseline)
		return !x.f.full()
	})
}

// assertDrained asserts that the goroutine count returns to a cell's
// pre-boot baseline (plus scheduler slack) once the cell is torn down.
func (x *chaosScan) assertDrained(name string, baseline int) {
	x.assert(settle(func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	}), "%s: goroutines leaked: %d running, baseline %d", name, runtime.NumGoroutine(), baseline)
}

// chaosShapes are the grid's workload shapes, as mutations of the base
// LoadConfig for a cell of n requests.
var chaosShapes = []struct {
	name  string
	apply func(cfg *serve.LoadConfig, n int)
}{
	{"uniform", func(cfg *serve.LoadConfig, n int) {
		cfg.RequestsPerClient = n / cfg.Clients
	}},
	{"zipf-hotspot", func(cfg *serve.LoadConfig, n int) {
		cfg.RequestsPerClient = n / cfg.Clients
		cfg.ZipfS = 1.5
		cfg.HotspotFrac = 0.3
		cfg.HotSet = 64
	}},
	{"flash-crowd", func(cfg *serve.LoadConfig, n int) {
		// A low/high/low staircase whose spike offers ~4× the
		// shoulders; total offered ≈ n requests.
		rate := float64(n) / 0.6
		cfg.Schedule = []serve.RatePhase{
			{Rate: rate / 2, Duration: 100 * time.Millisecond},
			{Rate: rate * 2, Duration: 100 * time.Millisecond},
			{Rate: rate / 2, Duration: 100 * time.Millisecond},
		}
		cfg.MaxInFlight = 1024
	}},
	{"batch-mix", func(cfg *serve.LoadConfig, n int) {
		cfg.RequestsPerClient = n / cfg.Clients
		cfg.BatchSize = 8
		cfg.BatchFrac = 0.3
	}},
}

// chaosSchedules are the grid's fault schedules (Seed filled per
// cell); the zero config is the clean-link control.
var chaosSchedules = []struct {
	name string
	cfg  serve.ChaosConfig
}{
	{"clean", serve.ChaosConfig{}},
	{"latency-jitter", serve.ChaosConfig{
		Latency: 200 * time.Microsecond,
		Jitter:  300 * time.Microsecond,
	}},
	{"drop-corrupt", serve.ChaosConfig{
		Latency:     50 * time.Microsecond,
		DropFrac:    0.05,
		CorruptFrac: 0.05,
	}},
	{"sever", serve.ChaosConfig{
		Latency:   50 * time.Microsecond,
		SeverFrac: 0.04,
	}},
	{"slow-reader", serve.ChaosConfig{
		ReadChunk: 256,
		ReadDelay: 100 * time.Microsecond,
	}},
}

// ChaosLedger is what one grid cell leaves behind: the oracle asserts
// the serving contract on it and E24 tabulates it.
type ChaosLedger struct {
	Shape, Schedule string
	// Load is the client side: its ledger, completions, transport
	// errors and latency quantiles.
	Load serve.LoadResult
	// Counts is the server's outcome ledger after the drain poll;
	// Settled reports whether it balanced before the poll gave up.
	Counts  serve.Counts
	Settled bool
	// Baseline is the goroutine count before the cell booted.
	Baseline int
	// lies holds every observed answer's replay against a clean engine.
	lies *respValidator
}

// ChaosGrid runs the shape × schedule cells in order, shape-major,
// and hands each cell's ledger to visit once the cell is torn down; a
// false return stops the sweep. Each cell boots a fresh single-node
// server behind a chaotic link and drives one shaped load of n
// requests through it, seeded per cell from seed.
func ChaosGrid(seed int64, n int, visit func(ChaosLedger) bool) error {
	if n < MinChaosRequests {
		return fmt.Errorf("check: chaos needs at least %d requests per cell, got %d", MinChaosRequests, n)
	}
	for _, shape := range chaosShapes {
		for _, sched := range chaosSchedules {
			name := shape.name + "/" + sched.name
			l := ChaosLedger{Shape: shape.name, Schedule: sched.name,
				Baseline: runtime.NumGoroutine(), lies: newRespValidator()}
			ccfg := sched.cfg
			ccfg.Seed = nameSeed(seed, name)
			cfg := serve.LoadConfig{
				D: 2, K: 8,
				Clients:        4,
				HotSet:         64,
				Seed:           nameSeed(seed, "load/"+name),
				Addr:           "srv",
				RequestTimeout: 400 * time.Millisecond,
				Observer:       l.lies.observe,
			}
			shape.apply(&cfg, n)
			if err := l.run(ccfg, cfg); err != nil {
				return fmt.Errorf("check: chaos %s: %w", name, err)
			}
			if !visit(l) {
				return nil
			}
		}
	}
	return nil
}

// run boots the cell's server and chaotic link, drives the load, and
// polls the server ledger until it balances.
func (l *ChaosLedger) run(ccfg serve.ChaosConfig, cfg serve.LoadConfig) error {
	mem := serve.NewMemTransport()
	ln, err := mem.Listen(cfg.Addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := serve.NewServer(serve.Config{
		Shards: 4, QueueDepth: 512, CacheSize: 512,
		DefaultDeadline: 500 * time.Millisecond,
		WriteTimeout:    500 * time.Millisecond,
		Registry:        obs.NewRegistry(),
	})
	defer srv.Close()
	go srv.Serve(ln)
	ct := serve.NewChaosTransport(mem, ccfg)
	ct.SetEnabled(true)
	cfg.Transport = ct
	if l.Load, err = serve.RunLoad(srv, cfg); err != nil {
		return err
	}
	// Tasks admitted from dying connections may still be draining
	// toward their shed-canceled outcome.
	l.Settled = settle(func() bool {
		l.Counts = srv.Counts()
		return l.Counts.Conserved()
	})
	return nil
}

// settle polls ok until it holds or drainTimeout passes, reporting
// whether it held: the one drain poll behind every ledger and
// goroutine check of the chaos and cluster cells.
func settle(ok func() bool) bool {
	deadline := time.Now().Add(drainTimeout)
	for !ok() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// nameSeed derives an independent, reproducible seed per named cell.
func nameSeed(seed int64, name string) int64 {
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	return seed
}

// respValidator checks every client-observed response against a clean
// engine. Violations are counted, not asserted per response, so each
// cell contributes a fixed number of assertions regardless of load
// variance — that is what keeps the verdict byte-identical for a
// fixed seed.
type respValidator struct {
	mu     sync.Mutex
	engine *serve.Engine

	cachedDegraded int
	wrong          int
	invalid        int
	firstCached    string
	firstWrong     string
	firstInvalid   string
}

func newRespValidator() *respValidator {
	return &respValidator{engine: serve.NewEngine(nil)}
}

// observe is the LoadConfig.Observer hook: called once per completed
// request, from many client goroutines.
func (v *respValidator) observe(req serve.Request, resp serve.Response) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if req.Kind == "batch" {
		if resp.Status != serve.StatusOK {
			v.scalar(req, resp) // shed/error envelopes validate as scalars
			return
		}
		if len(resp.Batch) != len(req.Batch) {
			v.invalidf("batch of %d answered with %d sub-responses", len(req.Batch), len(resp.Batch))
			return
		}
		for i, sub := range req.Batch {
			v.scalar(sub, resp.Batch[i])
		}
		return
	}
	v.scalar(req, resp)
}

func (v *respValidator) scalar(req serve.Request, resp serve.Response) {
	switch resp.Status {
	case serve.StatusShed:
		if resp.ShedReason == "" {
			v.invalidf("shed response without a reason (%s %s→%s)", req.Kind, req.Src, req.Dst)
		}
		return
	case serve.StatusError:
		if resp.Error == "" {
			v.invalidf("error response without a message (%s %s→%s)", req.Kind, req.Src, req.Dst)
		}
		return
	case serve.StatusOK:
	default:
		v.invalidf("unknown status %q (%s %s→%s)", resp.Status, req.Kind, req.Src, req.Dst)
		return
	}
	if resp.Cached && resp.Degrade != "" {
		v.cachedDegraded++
		if v.firstCached == "" {
			v.firstCached = fmt.Sprintf("%s %s→%s cached at degrade %q", req.Kind, req.Src, req.Dst, resp.Degrade)
		}
	}
	q, err := serve.ParseQuery(req)
	if err != nil {
		v.invalidf("ok response to an unparseable request (%s %s→%s): %v", req.Kind, req.Src, req.Dst, err)
		return
	}
	a, _, err := v.engine.Answer(q, serve.LevelFull)
	if err != nil {
		v.invalidf("ok response where the clean engine errors (%s %s→%s): %v", req.Kind, req.Src, req.Dst, err)
		return
	}
	switch resp.Degrade {
	case "", "distance":
		if resp.Distance != a.Distance {
			v.wrongf("%s %s→%s: distance %d, clean engine %d", req.Kind, req.Src, req.Dst, resp.Distance, a.Distance)
		} else if q.Kind == serve.KindNextHop && resp.Degrade == "" {
			// The canonical hop, or done exactly when src == dst.
			want := ""
			if a.HasHop {
				want = serve.FormatHop(a.Hop)
			}
			if resp.Done == a.HasHop || resp.NextHop != want {
				v.wrongf("%s %s→%s: next hop %q done %v, clean engine %q done %v", req.Kind, req.Src, req.Dst, resp.NextHop, resp.Done, want, !a.HasHop)
			}
		}
	case "bounds":
		if resp.Bounds == nil || resp.Bounds.Lo > a.Distance || a.Distance > resp.Bounds.Hi {
			v.wrongf("%s %s→%s: bounds %+v exclude true distance %d", req.Kind, req.Src, req.Dst, resp.Bounds, a.Distance)
		}
	default:
		v.invalidf("unknown degrade rung %q (%s %s→%s)", resp.Degrade, req.Kind, req.Src, req.Dst)
	}
}

func (v *respValidator) invalidf(format string, args ...any) {
	v.invalid++
	if v.firstInvalid == "" {
		v.firstInvalid = fmt.Sprintf(format, args...)
	}
}

func (v *respValidator) wrongf(format string, args ...any) {
	v.wrong++
	if v.firstWrong == "" {
		v.firstWrong = fmt.Sprintf(format, args...)
	}
}

// fabric drives a live cluster whose every link — peer fabric and
// client connections alike — runs through the chaos decorator, and
// checks the relaxed identities: outcome conservation stays exact per
// node once drained, while the hop identity holds in ≤-form (a lost
// forward response makes the origin fall back, so a peer can admit a
// forward whose origin never labels the outcome forwarded).
func (x *chaosScan) fabric() error {
	before := runtime.NumGoroutine()
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:         4,
		Seed:          nameSeed(x.opt.Seed, "fabric"),
		IDLen:         10,
		Replication:   1,
		PeerIOTimeout: 300 * time.Millisecond,
		Chaos: &serve.ChaosConfig{
			Seed:      nameSeed(x.opt.Seed, "fabric/chaos"),
			Latency:   100 * time.Microsecond,
			Jitter:    100 * time.Microsecond,
			SeverFrac: 0.02,
		},
		Serve: serve.Config{
			Shards: 4, QueueDepth: 512, CacheSize: 512,
			DefaultDeadline: 2 * time.Second,
			WriteTimeout:    500 * time.Millisecond,
		},
	})
	if err != nil {
		return fmt.Errorf("check: chaos fabric: %w", err)
	}
	h.Chaos.SetEnabled(true)

	// A severed client connection is part of the schedule, not a
	// finding: the drivers redial. What must hold is the ledger.
	reqs := cluster.Queries(nameSeed(x.opt.Seed, "fabric/load"), 8, x.opt.Requests, true)
	res, err := h.Drive(spread(reqs, 0, 1), nil)
	if err != nil {
		h.Close()
		return fmt.Errorf("check: chaos fabric: %w", err)
	}

	x.assert(cluster.Total(res).OK > 0, "fabric: no request survived the chaotic links")
	var agg cluster.ClusterCounts
	settled := settle(func() bool {
		agg = h.Counts()
		return balanced(agg)
	})
	x.assert(settled, "fabric: cluster ledger never balanced after drain: %+v", agg)
	x.assert(perNodeConserved(agg), "fabric: a node's ledger is broken: %+v", agg.PerNode)
	x.assert(agg.Forwarded <= agg.ForwardedIn,
		"fabric: more forwarded outcomes (%d) than admitted forwards (%d)", agg.Forwarded, agg.ForwardedIn)
	h.Close()
	x.assertDrained("fabric", before)
	return nil
}

// StormLedger is what the churn-storm cell leaves behind: the oracle
// asserts the relaxed cluster identities on it and E24 tabulates it.
type StormLedger struct {
	// Drivers holds the two protected drivers' tallies over Requests
	// requests in all.
	Drivers  []cluster.DriverResult
	Requests int
	// Killed holds the victims' final counts; Counts is the
	// cluster-wide ledger after the drain poll with them folded in, and
	// Settled reports whether it balanced, in sum and per node.
	Killed  []serve.Counts
	Counts  cluster.ClusterCounts
	Settled bool
	// Converged reports whether membership re-converged after the storm.
	Converged bool
	// Baseline is the goroutine count before the cell booted.
	Baseline int
}

// ChaosStorm runs the churn-storm cell: a six-node cluster on clean
// links driven from two protected nodes with n seeded requests, while
// a correlated kill burst plus joins (Harness.Storm) tears through
// the rest.
func ChaosStorm(seed int64, n int) (StormLedger, error) {
	l := StormLedger{Baseline: runtime.NumGoroutine()}
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:         6,
		Seed:          nameSeed(seed, "storm"),
		IDLen:         10,
		Replication:   2,
		PeerIOTimeout: 500 * time.Millisecond,
		Serve: serve.Config{
			Shards: 4, QueueDepth: 512, CacheSize: 512,
			DefaultDeadline: 2 * time.Second,
			WriteTimeout:    500 * time.Millisecond,
		},
	})
	if err != nil {
		return l, fmt.Errorf("check: chaos storm: %w", err)
	}
	defer h.Close()

	drivers := spread(cluster.Queries(nameSeed(seed, "storm/load"), 8, n, true), 0, 1)
	l.Requests = len(drivers) * len(drivers[0].Reqs)
	l.Drivers, err = h.Drive(drivers, func() error {
		var err error
		l.Killed, err = h.Storm(2, 2, len(drivers))
		return err
	})
	if err != nil {
		return l, fmt.Errorf("check: chaos storm: %w", err)
	}
	l.Settled = settle(func() bool {
		l.Counts = h.Counts(l.Killed...)
		return balanced(l.Counts)
	})
	l.Converged = h.WaitConverged(30*time.Second) == nil
	return l, nil
}

// storm asserts the relaxed identities on the churn-storm cell.
func (x *chaosScan) storm() error {
	l, err := ChaosStorm(x.opt.Seed, x.opt.Requests)
	if err != nil {
		return err
	}
	// The drivers attach to protected nodes, so the storm must not cost
	// them a single request: forwards to dead peers fall back locally.
	t := cluster.Total(l.Drivers)
	x.assert(t.Errs == 0, "storm: %d driver requests failed on protected nodes (first: %v)", t.Errs, t.FirstErr)
	x.assert(t.OK+t.Errs == l.Requests, "storm: %d outcomes for %d requests", t.OK+t.Errs, l.Requests)
	killedOK := true
	for _, kc := range l.Killed {
		killedOK = killedOK && kc.Conserved()
	}
	x.assert(killedOK, "storm: a victim's final ledger is broken: %+v", l.Killed)
	x.assert(l.Settled, "storm: cluster ledger never balanced after drain: %+v", l.Counts)
	x.assert(perNodeConserved(l.Counts), "storm: a node's ledger is broken: %+v", l.Counts.PerNode)
	x.assert(l.Counts.Forwarded <= l.Counts.ForwardedIn,
		"storm: more forwarded outcomes (%d) than admitted forwards (%d)", l.Counts.Forwarded, l.Counts.ForwardedIn)
	x.assert(l.Converged, "storm: membership never re-converged")
	x.assertDrained("storm", l.Baseline)
	return nil
}

// spread deals reqs evenly over one driver per listed node (a
// remainder is dropped).
func spread(reqs []serve.Request, nodes ...int) []cluster.Driver {
	per := len(reqs) / len(nodes)
	out := make([]cluster.Driver, len(nodes))
	for d, node := range nodes {
		out[d] = cluster.Driver{Node: node, Reqs: reqs[d*per : (d+1)*per]}
	}
	return out
}

// balanced reports the cluster-wide outcome identity, in sum and on
// every node.
func balanced(agg cluster.ClusterCounts) bool {
	return agg.Conserved() && perNodeConserved(agg)
}

func perNodeConserved(agg cluster.ClusterCounts) bool {
	for _, pn := range agg.PerNode {
		if !pn.Conserved() {
			return false
		}
	}
	return true
}
