package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// LoadConfig drives RunLoad against one server. Two generator shapes:
//
//   - Closed loop (Rate == 0, no Schedule): Clients workers each issue
//     RequestsPerClient queries back-to-back, waiting for each answer.
//     Offered load self-regulates to server capacity — the classic
//     "think-time zero" closed system.
//   - Open loop (Rate > 0 or Schedule set): queries are launched on a
//     fixed schedule regardless of completions (up to MaxInFlight
//     outstanding), spread round-robin over Clients connections.
//     Offered load is external — the regime where admission control
//     and the degrade ladder earn their keep.
//
// Beyond uniform traffic, the adversarial knobs (ZipfS, HotspotFrac,
// BatchFrac, Schedule) and the Transport/RequestTimeout pair let the
// same generator drive skewed, bursty workloads through a chaotic
// link — the shapes the chaos oracle sweeps.
type LoadConfig struct {
	D, K int
	// Clients is the connection count (and the worker count in closed
	// loop). Default 4.
	Clients int
	// RequestsPerClient is the closed-loop request budget per worker.
	// Default 256.
	RequestsPerClient int
	// Rate > 0 selects the open loop: offered requests per second.
	Rate float64
	// Duration bounds the open loop. Default 1s.
	Duration time.Duration
	// Schedule, when non-empty, selects the open loop with a piecewise
	// rate — consecutive phases replayed in order (a flash crowd is a
	// low/high/low staircase). Mutually exclusive with Rate.
	Schedule []RatePhase
	// MaxInFlight bounds outstanding open-loop requests (launches
	// beyond it are dropped client-side and reported in Unlaunched,
	// keeping the generator itself allocation- and goroutine-bounded).
	// Default 4096.
	MaxInFlight int
	// BatchSize, when > 0, wraps launches into batch requests of that
	// many scalar sub-queries (≤ MaxBatch). Batching amortizes wire and
	// parse cost over many route computations, so it is the shape that
	// can drive the worker shards — rather than the transport — to
	// saturation and engage the degrade ladder.
	BatchSize int
	// BatchFrac, with BatchSize > 0, makes only that fraction of
	// launches batches; the rest stay scalar. 0 keeps every launch a
	// batch (the pre-existing behavior), so a batch-vs-scalar mix is
	// opt-in.
	BatchFrac float64
	// Mode is the network orientation queried.
	Mode Mode
	// DeadlineMS is carried on every request (0: server default).
	DeadlineMS int64
	// HotSet, when > 0, draws sources/destinations from a fixed pool
	// of that many vertices (cache-friendly skew); 0 draws uniformly.
	// ZipfS or HotspotFrac force a default pool of 256.
	HotSet int
	// ZipfS, when > 0 (must be > 1), draws vertices Zipf-distributed
	// over the hot pool instead of uniformly: pool rank 0 is hottest.
	// The classic skewed-source shape.
	ZipfS float64
	// HotspotFrac sends that fraction of requests to one destination
	// (pool rank 0) regardless of the source draw — a single hot key.
	HotspotFrac float64
	Seed        int64
	// StampTrace stamps every request with a deterministic trace_id
	// derived from (Seed, client, sequence). Combined with the server's
	// deterministic sampler this makes a load run replayable: the same
	// config samples the identical trace set, byte for byte.
	StampTrace bool
	// Transport, when non-nil, dials Addr through it for every client
	// connection instead of using the server's in-process loopback —
	// the seam a ChaosTransport plugs into. Clients whose connection
	// dies mid-run are redialed (counted in Redials).
	Transport Transport
	Addr      string
	// RequestTimeout bounds each request client-side. Mandatory in
	// spirit whenever frames can be dropped: a request whose frame
	// vanished would otherwise wait forever.
	RequestTimeout time.Duration
	// Observer, when non-nil, is called with every completed
	// request/response pair, concurrently from generator goroutines.
	// This is the chaos oracle's tap: it sees exactly what the client
	// saw, for replay against a clean engine.
	Observer func(Request, Response)
}

// RatePhase is one leg of an open-loop rate schedule.
type RatePhase struct {
	Rate     float64 // offered requests per second
	Duration time.Duration
}

// ErrLoadConfig marks a LoadConfig rejected at validation time —
// every shape knob outside its documented range fails here, before
// any connection is dialed or goroutine started, rather than panicking
// mid-run (rand.NewZipf, for one, aborts the process on s ≤ 1).
var ErrLoadConfig = errors.New("serve: invalid load config")

// Validate checks every LoadConfig knob against its documented range.
// RunLoad calls it first; callers building configs programmatically
// (sweep drivers, CLI flag parsers) can call it directly to fail fast.
// All violations wrap ErrLoadConfig.
func (cfg LoadConfig) Validate() error {
	fail := func(format string, a ...any) error {
		return fmt.Errorf("%w: %s", ErrLoadConfig, fmt.Sprintf(format, a...))
	}
	if cfg.D < 2 || cfg.K < 1 {
		return fail("needs d ≥ 2, k ≥ 1, got DG(%d,%d)", cfg.D, cfg.K)
	}
	if cfg.Clients < 0 || cfg.RequestsPerClient < 0 || cfg.MaxInFlight < 0 || cfg.HotSet < 0 {
		return fail("negative count knob (Clients %d, RequestsPerClient %d, MaxInFlight %d, HotSet %d)",
			cfg.Clients, cfg.RequestsPerClient, cfg.MaxInFlight, cfg.HotSet)
	}
	if cfg.Rate < 0 {
		return fail("Rate must be ≥ 0, got %v", cfg.Rate)
	}
	if cfg.BatchSize < 0 || cfg.BatchSize > MaxBatch {
		return fail("batch size %d outside [0, %d]", cfg.BatchSize, MaxBatch)
	}
	if cfg.BatchFrac < 0 || cfg.BatchFrac > 1 {
		return fail("BatchFrac %v outside [0,1]", cfg.BatchFrac)
	}
	if cfg.HotspotFrac < 0 || cfg.HotspotFrac > 1 {
		return fail("HotspotFrac %v outside [0,1]", cfg.HotspotFrac)
	}
	// The documented "when > 0 (must be > 1)" contract: a ZipfS in
	// (0, 1] used to sail through to rand.NewZipf and panic the
	// generator mid-run. Negative values are equally meaningless.
	if cfg.ZipfS != 0 && cfg.ZipfS <= 1 {
		return fail("ZipfS must be > 1 (or 0 to disable), got %v", cfg.ZipfS)
	}
	if len(cfg.Schedule) > 0 {
		if cfg.Rate > 0 {
			return fail("Rate and Schedule are mutually exclusive")
		}
		for i, ph := range cfg.Schedule {
			if ph.Rate <= 0 || ph.Duration <= 0 {
				return fail("schedule phase %d needs positive rate and duration, got %v over %v", i, ph.Rate, ph.Duration)
			}
		}
	}
	if cfg.Transport != nil && cfg.Addr == "" {
		return fail("Transport set without Addr to dial")
	}
	return nil
}

// LoadResult is one load-generation run, combining the client-side
// view (latencies, transport errors) with the server-side conservation
// counters (diffed across the run, so a shared server is fine).
type LoadResult struct {
	// Server-side outcome accounting for requests admitted during the
	// run: Sent = Answered + Degraded + Shed exactly.
	Sent, Answered, Degraded, Shed int64
	ShedByReason                   map[string]int64
	// Hits is the result-cache hit delta across the run.
	Hits int64
	// Completed counts client-observed responses; Errors counts
	// transport-level failures (a timed-out request under chaos is one
	// of these); Unlaunched counts open-loop launches skipped at the
	// MaxInFlight cap; Redials counts mid-run client reconnects after
	// a severed connection.
	Completed, Errors, Unlaunched, Redials int64
	// Client-observed latency quantiles and run wall-clock. Open-loop
	// client latency includes time queued in the generator itself, so
	// under overload it grows without bound by construction.
	P50, P99 time.Duration
	// ServerP50 and ServerP99 are admission-to-answer quantiles
	// estimated from the dn_serve_latency_ns histogram over the run
	// (zero without a Registry). This is the latency the degrade
	// ladder bounds: tasks older than their deadline are shed, never
	// answered late.
	ServerP50, ServerP99 time.Duration
	Elapsed              time.Duration
	// Throughput is (Answered+Degraded)/Elapsed in requests/second.
	Throughput float64
}

// Conserved reports the exact server-side conservation invariant.
func (r LoadResult) Conserved() bool {
	return r.Sent == r.Answered+r.Degraded+r.Shed
}

// RunLoad drives s with the configured workload — over in-process
// connections, or through cfg.Transport — and returns the combined
// accounting.
func RunLoad(s *Server, cfg LoadConfig) (LoadResult, error) {
	if err := cfg.Validate(); err != nil {
		return LoadResult{}, err
	}
	if cfg.Clients < 1 {
		cfg.Clients = 4
	}
	if cfg.RequestsPerClient < 1 {
		cfg.RequestsPerClient = 256
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 4096
	}
	if (cfg.ZipfS > 0 || cfg.HotspotFrac > 0) && cfg.HotSet == 0 {
		cfg.HotSet = 256
	}
	// Materialize the hot pool once: drawing through a fresh
	// pool-seeded rng per vertex is deterministic but far too slow to
	// sit on the open loop's launch path.
	var pool []word.Word
	if cfg.HotSet > 0 {
		pool = make([]word.Word, cfg.HotSet)
		for i := range pool {
			pool[i] = poolWord(cfg, i)
		}
	}

	dial := func() (*Client, error) {
		if cfg.Transport != nil {
			return DialTransport(cfg.Transport, cfg.Addr)
		}
		return s.SelfClient()
	}
	clients := make([]*Client, cfg.Clients)
	for i := range clients {
		c, err := dial()
		if err != nil {
			return LoadResult{}, err
		}
		clients[i] = c
	}
	// Workers may swap a dead client for a fresh one mid-run; the
	// surviving connection of each slot is closed here.
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	before := s.Counts()
	regBefore := s.cfg.Registry.Snapshot()
	start := time.Now()

	var res LoadResult
	var latencies []time.Duration
	if cfg.Rate > 0 || len(cfg.Schedule) > 0 {
		latencies = runOpenLoop(clients, cfg, pool, dial, &res)
	} else {
		latencies = runClosedLoop(clients, cfg, pool, dial, &res)
	}

	res.Elapsed = time.Since(start)
	after := s.Counts()
	res.Sent = after.Sent - before.Sent
	res.Answered = after.Answered - before.Answered
	res.Degraded = after.Degraded - before.Degraded
	res.ShedByReason = make(map[string]int64)
	for reason, v := range after.ShedByReason {
		if d := v - before.ShedByReason[reason]; d != 0 {
			res.ShedByReason[reason] = d
			res.Shed += d
		}
	}
	regDiff := s.cfg.Registry.Snapshot().Diff(regBefore)
	res.Hits = regDiff.Counter(metricCacheHits)
	lat := regDiff.Histogram(metricLatencyNs)
	res.ServerP50 = time.Duration(lat.Quantile(0.50))
	res.ServerP99 = time.Duration(lat.Quantile(0.99))
	res.Completed = int64(len(latencies))
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.Throughput = float64(res.Answered+res.Degraded) / sec
	}
	res.P50 = Percentile(latencies, 0.50)
	res.P99 = Percentile(latencies, 0.99)
	return res, nil
}

// doOne issues req on c under the configured request timeout and feeds
// the observer on success.
func doOne(c *Client, cfg *LoadConfig, req Request) (Response, error) {
	ctx := context.Background()
	if cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.RequestTimeout)
		defer cancel()
	}
	resp, err := c.Do(ctx, req)
	if err == nil && cfg.Observer != nil {
		cfg.Observer(req, resp)
	}
	return resp, err
}

// runClosedLoop is the Clients × RequestsPerClient think-time-zero
// driver. Under a transport that can sever connections, a worker whose
// client died redials and keeps going; its request budget is fixed
// either way.
func runClosedLoop(clients []*Client, cfg LoadConfig, pool []word.Word, dial func() (*Client, error), res *LoadResult) []time.Duration {
	var mu sync.Mutex
	var all []time.Duration
	var errs, redials int64
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i]
			dr := newDraw(&cfg, cfg.Seed+int64(i), pool)
			lats := make([]time.Duration, 0, cfg.RequestsPerClient)
			var nerr, nredial int64
			for n := 0; n < cfg.RequestsPerClient; n++ {
				req := dr.request()
				if cfg.StampTrace {
					req.TraceID = stampTraceID(cfg.Seed, i, n)
				}
				t0 := time.Now()
				if _, err := doOne(c, &cfg, req); err != nil {
					nerr++
					// A timed-out request leaves a healthy connection
					// (the frame was merely dropped); any other error
					// means the connection died — redial.
					if cfg.Transport != nil && !isTimeout(err) {
						if nc, derr := dial(); derr == nil {
							c.Close()
							c = nc
							nredial++
						}
					}
					continue
				}
				lats = append(lats, time.Since(t0))
			}
			clients[i] = c // hand the surviving connection back for cleanup
			mu.Lock()
			all = append(all, lats...)
			errs += nerr
			redials += nredial
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	res.Errors = errs
	res.Redials = redials
	return all
}

// runOpenLoop launches requests on a fixed schedule. The pacing is
// deficit-based rather than one timer tick per request: a
// sub-millisecond ticker silently coalesces on coarse runtime timers,
// capping the offered rate far below the configured one, whereas
// launching (due(elapsed) − launched) requests per wakeup holds the
// schedule at any rate the generator itself can sustain. With a
// Schedule, due is the piecewise integral of the phase rates — the
// flash-crowd staircase.
func runOpenLoop(clients []*Client, cfg LoadConfig, pool []word.Word, dial func() (*Client, error), res *LoadResult) []time.Duration {
	var mu sync.Mutex
	var all []time.Duration
	var errs, unlaunched, redials int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.MaxInFlight)
	dr := newDraw(&cfg, cfg.Seed, pool)
	total := cfg.Duration
	if len(cfg.Schedule) > 0 {
		total = 0
		for _, ph := range cfg.Schedule {
			total += ph.Duration
		}
	}
	start := time.Now()
	launched := 0
	for {
		elapsed := time.Since(start)
		if elapsed >= total {
			break
		}
		due := scheduleDue(&cfg, elapsed)
		for ; launched < due; launched++ {
			req := dr.request()
			idx := launched % len(clients)
			if cfg.StampTrace {
				req.TraceID = stampTraceID(cfg.Seed, idx, launched)
			}
			c := clients[idx]
			if cfg.Transport != nil && c.Err() != nil {
				if nc, derr := dial(); derr == nil {
					c.Close()
					clients[idx] = nc
					c = nc
					redials++
				}
			}
			select {
			case sem <- struct{}{}:
			default:
				unlaunched++
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				_, err := doOne(c, &cfg, req)
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					all = append(all, lat)
				}
				mu.Unlock()
			}()
		}
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait()
	res.Errors = errs
	res.Unlaunched = unlaunched
	res.Redials = redials
	return all
}

// isTimeout reports a context-bounded request expiry — the one Do
// failure mode that leaves the connection healthy.
func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// scheduleDue is the cumulative request count owed at elapsed — the
// flat Rate line, or the piecewise integral of the Schedule phases.
func scheduleDue(cfg *LoadConfig, elapsed time.Duration) int {
	if len(cfg.Schedule) == 0 {
		return int(elapsed.Seconds() * cfg.Rate)
	}
	var due float64
	for _, ph := range cfg.Schedule {
		if elapsed <= 0 {
			break
		}
		span := ph.Duration
		if elapsed < span {
			span = elapsed
		}
		due += span.Seconds() * ph.Rate
		elapsed -= ph.Duration
	}
	return int(due)
}

// draw generates the configured request mix from one rng stream.
type draw struct {
	cfg  *LoadConfig
	rng  *rand.Rand
	pool []word.Word
	zipf *rand.Zipf
}

func newDraw(cfg *LoadConfig, seed int64, pool []word.Word) *draw {
	d := &draw{cfg: cfg, rng: rand.New(rand.NewSource(seed)), pool: pool}
	if cfg.ZipfS > 0 && len(pool) > 1 {
		d.zipf = rand.NewZipf(d.rng, cfg.ZipfS, 1, uint64(len(pool)-1))
	}
	return d
}

// request draws one launch — a scalar query from the configured kind
// mix, or a batch of BatchSize of them (per BatchFrac).
func (d *draw) request() Request {
	var req Request
	batch := d.cfg.BatchSize > 0
	if batch && d.cfg.BatchFrac > 0 {
		batch = d.rng.Float64() < d.cfg.BatchFrac
	}
	if batch {
		items := make([]Request, d.cfg.BatchSize)
		for i := range items {
			items[i] = d.scalar()
		}
		req = BatchRequest(items...)
	} else {
		req = d.scalar()
	}
	req.DeadlineMS = d.cfg.DeadlineMS
	return req
}

// The scalar kind mix: route and next-hop fractions, the remainder
// distance queries.
const (
	routeFrac   = 0.5
	nextHopFrac = 0.2
)

// scalar draws one query from the kind mix and the configured vertex
// distribution.
func (d *draw) scalar() Request {
	src, dst := d.pair()
	switch p := d.rng.Float64(); {
	case p < routeFrac:
		return RouteRequest(src, dst, d.cfg.Mode)
	case p < routeFrac+nextHopFrac:
		return NextHopRequest(src, dst, d.cfg.Mode)
	default:
		return DistanceRequest(src, dst, d.cfg.Mode)
	}
}

func (d *draw) pair() (word.Word, word.Word) {
	src := d.vertex()
	if d.cfg.HotspotFrac > 0 && len(d.pool) > 0 && d.rng.Float64() < d.cfg.HotspotFrac {
		return src, d.pool[0]
	}
	return src, d.vertex()
}

func (d *draw) vertex() word.Word {
	if d.zipf != nil {
		return d.pool[d.zipf.Uint64()]
	}
	if len(d.pool) > 0 {
		return d.pool[d.rng.Intn(len(d.pool))]
	}
	return word.Random(d.cfg.D, d.cfg.K, d.rng)
}

// stampTraceID derives the deterministic trace id of the n-th request
// of one generator stream.
func stampTraceID(seed int64, client, n int) obs.TraceID {
	var b [24]byte
	binary.BigEndian.PutUint64(b[0:], uint64(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(client))
	binary.BigEndian.PutUint64(b[16:], uint64(n))
	return obs.TraceIDFromBytes(b[:])
}

func poolWord(cfg LoadConfig, i int) word.Word {
	return word.Random(cfg.D, cfg.K, rand.New(rand.NewSource(cfg.Seed^int64(0x9E3779B9)+int64(i))))
}

// Percentile returns the q-quantile of lats (nearest rank, index q·n),
// 0 when empty. Sorts a copy.
func Percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
