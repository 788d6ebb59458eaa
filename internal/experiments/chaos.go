package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// ChaosRow is one cell of experiment E24: a workload shape driven
// through a fault schedule against a single-node server, plus one
// final churn-storm row measured against a whole cluster. The Sent /
// Answered / Degraded / Shed columns are the server-side outcome
// ledger; Errs counts client-observed transport failures (timeouts,
// severed connections); Conserved reports whether the ledger balanced
// exactly after drain — the experiment's claim is that it always does,
// no matter what the link did.
type ChaosRow struct {
	Shape     string
	Schedule  string
	Sent      int64
	Answered  int64
	Degraded  int64
	Shed      int64
	Errs      int64
	P99MS     float64
	Conserved bool
}

// ChaosRunConfig shapes the E24 sweep. Zero values default to a
// CI-sized run.
type ChaosRunConfig struct {
	Requests int // per cell, default 240
	Seed     int64
}

// chaosCellSchedule is one fault schedule of the sweep; the zero
// ChaosConfig row ("clean") is the control.
var chaosCellSchedules = []struct {
	name string
	cfg  serve.ChaosConfig
}{
	{"clean", serve.ChaosConfig{}},
	{"drop-corrupt", serve.ChaosConfig{Latency: 50 * time.Microsecond, DropFrac: 0.05, CorruptFrac: 0.05}},
	{"sever", serve.ChaosConfig{Latency: 50 * time.Microsecond, SeverFrac: 0.04}},
	{"slow-reader", serve.ChaosConfig{ReadChunk: 256, ReadDelay: 100 * time.Microsecond}},
}

// chaosCellShapes are the workload shapes of the sweep, as mutations
// of the base LoadConfig.
var chaosCellShapes = []struct {
	name  string
	apply func(cfg *serve.LoadConfig, requests int)
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

// ChaosRun sweeps the shape × schedule grid and appends the
// churn-storm row. A broken conservation identity is reported in the
// row, not returned as an error — the table exists to show the ledger
// holding under every schedule, so a violation is the data point.
func ChaosRun(cfg ChaosRunConfig) ([]ChaosRow, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 240
	}
	var rows []ChaosRow
	for _, shape := range chaosCellShapes {
		for _, sched := range chaosCellSchedules {
			row, err := chaosCell(cfg, shape.name, sched.name, shape.apply, sched.cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	storm, err := chaosStormRow(cfg)
	if err != nil {
		return nil, err
	}
	return append(rows, storm), nil
}

func chaosCell(cfg ChaosRunConfig, shape, sched string, apply func(*serve.LoadConfig, int), ccfg serve.ChaosConfig) (ChaosRow, error) {
	mem := serve.NewMemTransport()
	ln, err := mem.Listen("srv")
	if err != nil {
		return ChaosRow{}, err
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

	ccfg.Seed = cfg.Seed + int64(len(shape))*1009 + int64(len(sched))*9973
	for _, c := range shape + "/" + sched {
		ccfg.Seed = ccfg.Seed*31 + int64(c)
	}
	ct := serve.NewChaosTransport(mem, ccfg)
	ct.SetEnabled(true)

	lcfg := serve.LoadConfig{
		D: 2, K: 8,
		Clients:        4,
		HotSet:         64,
		Seed:           ccfg.Seed ^ 0x5bd1,
		Transport:      ct,
		Addr:           "srv",
		RequestTimeout: 400 * time.Millisecond,
	}
	apply(&lcfg, cfg.Requests)
	res, err := serve.RunLoad(srv, lcfg)
	if err != nil {
		return ChaosRow{}, err
	}
	// Let tasks admitted from dying connections drain to their outcome
	// before snapshotting the ledger.
	counts := srv.Counts()
	for deadline := time.Now().Add(3 * time.Second); !counts.Conserved() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		counts = srv.Counts()
	}
	return ChaosRow{
		Shape:     shape,
		Schedule:  sched,
		Sent:      counts.Sent,
		Answered:  counts.Answered,
		Degraded:  counts.Degraded,
		Shed:      counts.Shed,
		Errs:      res.Errors,
		P99MS:     float64(res.P99) / float64(time.Millisecond),
		Conserved: counts.Conserved(),
	}, nil
}

// chaosStormRow boots a 6-node cluster on clean links, drives it from
// two protected nodes while a correlated kill burst plus joins tears
// through the rest, and reports the cluster-wide ledger with the
// victims' final counts folded in.
func chaosStormRow(cfg ChaosRunConfig) (ChaosRow, error) {
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:         6,
		Seed:          cfg.Seed + 77,
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
		return ChaosRow{}, err
	}
	defer h.Close()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		lats      []time.Duration
		errs      int64
		stormOnce sync.Once
		killed    []serve.Counts
		serr      error
	)
	const drivers = 2
	per := cfg.Requests / drivers
	for d := 0; d < drivers; d++ {
		c, err := h.Client(d)
		if err != nil {
			return ChaosRow{}, err
		}
		wg.Add(1)
		go func(d int, c *serve.Client) {
			defer wg.Done()
			defer c.Close()
			rng := newRand(cfg.Seed + int64(d)*131)
			for i := 0; i < per; i++ {
				if d == 0 && i == per/3 {
					stormOnce.Do(func() {
						killed, serr = h.Storm(2, 2, drivers)
					})
				}
				src := word.Random(2, 10, rng)
				dst := word.Random(2, 10, rng)
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				start := time.Now()
				_, err := c.Do(ctx, serve.DistanceRequest(src, dst, serve.Undirected))
				cancel()
				mu.Lock()
				if err != nil {
					errs++
				} else {
					lats = append(lats, time.Since(start))
				}
				mu.Unlock()
			}
		}(d, c)
	}
	wg.Wait()
	if serr != nil {
		return ChaosRow{}, fmt.Errorf("experiments: chaos storm: %w", serr)
	}

	agg := h.Counts(killed...)
	for deadline := time.Now().Add(3 * time.Second); !agg.Conserved() && time.Now().Before(deadline); {
		time.Sleep(25 * time.Millisecond)
		agg = h.Counts(killed...)
	}
	return ChaosRow{
		Shape:     "churn-storm",
		Schedule:  "kill-burst",
		Sent:      agg.Sent,
		Answered:  agg.Answered,
		Degraded:  agg.Degraded,
		Shed:      agg.Shed,
		Errs:      errs,
		P99MS:     float64(serve.Percentile(lats, 0.99)) / float64(time.Millisecond),
		Conserved: agg.Conserved(),
	}, nil
}

// ChaosTable renders E24: one row per shape × schedule cell plus the
// churn-storm row.
func ChaosTable(cfg ChaosRunConfig) (*stats.Table, error) {
	rows, err := ChaosRun(cfg)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("shape", "schedule", "sent", "answered", "degraded", "shed", "errs", "p99_ms", "conserved")
	for _, r := range rows {
		t.AddRow(r.Shape, r.Schedule, r.Sent, r.Answered, r.Degraded, r.Shed, r.Errs, r.P99MS, r.Conserved)
	}
	return t, nil
}
