package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ServeLoadRow is one offered-rate point of experiment E21: the
// route-query server driven open-loop through its admission queue and
// degrade ladder. SrvP50MS/SrvP99MS are admission-to-answer quantiles
// (the latency the ladder bounds); the client-observed quantiles grow
// without bound under open-loop overload by construction, so the
// server-side ones carry the E21 claim.
type ServeLoadRow struct {
	Rate       float64
	Sent       int64
	Answered   int64
	Degraded   int64
	Shed       int64
	Hits       int64
	SrvP50MS   float64
	SrvP99MS   float64
	Throughput float64
}

// ServeLoadConfig shapes the E21 sweep. Zero values default to a
// configuration small enough for CI and constrained enough that the
// top rates genuinely overload it: one worker shard behind a short
// queue, driven with batch requests so that one wire frame carries 64
// route computations (scalar frames bottleneck on transport long
// before the O(k) kernels saturate a shard).
type ServeLoadConfig struct {
	D, K       int           // network, default DG(2,10)
	Shards     int           // worker shards, default 1
	QueueDepth int           // admission queue, default 16
	CacheSize  int           // LRU answers, default 1024
	Clients    int           // connections, default 8
	HotSet     int           // skewed vertex pool, default 64
	BatchSize  int           // sub-queries per request, default 64
	DeadlineMS int64         // per-request budget, default 20
	Duration   time.Duration // per rate point, default 250ms
	Seed       int64
}

// ServeLoad sweeps offered rates against one server per point (fresh
// counters and cache, so points are independent).
func ServeLoad(cfg ServeLoadConfig, rates []float64) ([]ServeLoadRow, error) {
	if cfg.D == 0 {
		cfg.D = 2
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Clients == 0 {
		cfg.Clients = 8
	}
	if cfg.HotSet == 0 {
		cfg.HotSet = 64
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.DeadlineMS == 0 {
		cfg.DeadlineMS = 20
	}
	if cfg.Duration == 0 {
		cfg.Duration = 250 * time.Millisecond
	}
	var rows []ServeLoadRow
	for _, rate := range rates {
		s := serve.NewServer(serve.Config{
			Shards:          cfg.Shards,
			QueueDepth:      cfg.QueueDepth,
			CacheSize:       cfg.CacheSize,
			DefaultDeadline: time.Duration(cfg.DeadlineMS) * time.Millisecond,
			Registry:        obs.NewRegistry(),
		})
		res, err := serve.RunLoad(s, serve.LoadConfig{
			D: cfg.D, K: cfg.K,
			Clients:    cfg.Clients,
			Rate:       rate,
			Duration:   cfg.Duration,
			HotSet:     cfg.HotSet,
			BatchSize:  cfg.BatchSize,
			DeadlineMS: cfg.DeadlineMS,
			Seed:       cfg.Seed,
		})
		s.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, ServeLoadRow{
			Rate:       rate,
			Sent:       res.Sent,
			Answered:   res.Answered,
			Degraded:   res.Degraded,
			Shed:       res.Shed,
			Hits:       res.Hits,
			SrvP50MS:   float64(res.ServerP50) / float64(time.Millisecond),
			SrvP99MS:   float64(res.ServerP99) / float64(time.Millisecond),
			Throughput: res.Throughput,
		})
	}
	return rows, nil
}

// ServeLoadTable renders E21.
func ServeLoadTable(cfg ServeLoadConfig, rates []float64) (*stats.Table, error) {
	rows, err := ServeLoad(cfg, rates)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("rate", "sent", "answered", "degraded", "shed", "hits", "srv_p50ms", "srv_p99ms", "throughput")
	for _, r := range rows {
		t.AddRow(r.Rate, r.Sent, r.Answered, r.Degraded, r.Shed, r.Hits, r.SrvP50MS, r.SrvP99MS, r.Throughput)
	}
	return t, nil
}

// FlightStorm is experiment E22: an overload storm against E21's
// server shape (one shard, a 16-deep queue, 64-query batch frames) with
// tracing and the flight recorder armed; it returns the postmortem the
// anomaly monitor froze. The overload holds by construction, not by
// rate: a closed loop keeps exactly one request in flight per client,
// and there are four times as many clients as the queue and the shards
// can hold (cfg.Clients overrides; cfg.Duration is unused). Requests
// carry a budget (stormDeadlineMS) far longer than a full queue takes
// to drain, so a queued task reaches the worker instead of expiring,
// and the worker that dequeues behind a queue-full shed answers on the
// degrade ladder. A slow load generator only slows the storm down.
// Shed spikes and the degrade rung engaging are both anomalies, so a
// storm that leaves the recorder unfrozen is an error: E22's claim is
// exactly that the recorder catches the anomaly unattended.
func FlightStorm(cfg ServeLoadConfig) (obs.FlightSnapshot, error) {
	if cfg.D == 0 {
		cfg.D = 2
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4 * (cfg.QueueDepth + cfg.Shards)
	}
	if cfg.HotSet == 0 {
		cfg.HotSet = 64
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.DeadlineMS == 0 {
		cfg.DeadlineMS = stormDeadlineMS
	}
	s := serve.NewServer(serve.Config{
		Shards:          cfg.Shards,
		QueueDepth:      cfg.QueueDepth,
		CacheSize:       cfg.CacheSize,
		DefaultDeadline: time.Duration(cfg.DeadlineMS) * time.Millisecond,
		Registry:        obs.NewRegistry(),
		TraceSample:     16,
		TraceSeed:       uint64(cfg.Seed),
		TraceBufferSize: 512,
		FlightSize:      256,
		MonitorInterval: 5 * time.Millisecond,
	})
	defer s.Close()
	if _, err := serve.RunLoad(s, serve.LoadConfig{
		D: cfg.D, K: cfg.K,
		Clients:           cfg.Clients,
		RequestsPerClient: stormRequestsPerClient,
		HotSet:            cfg.HotSet,
		BatchSize:         cfg.BatchSize,
		DeadlineMS:        cfg.DeadlineMS,
		Seed:              cfg.Seed,
		StampTrace:        true,
	}); err != nil {
		return obs.FlightSnapshot{}, err
	}
	// The monitor freezes on its own tick; allow it a few windows past
	// the end of the load to process the final diff.
	for i := 0; i < 200 && !s.Flight().Frozen(); i++ {
		time.Sleep(5 * time.Millisecond)
	}
	snap := s.Flight().Snapshot()
	if !snap.Frozen {
		return snap, fmt.Errorf("%d closed-loop clients against a %d-deep queue and %d shard(s) did not trip the flight recorder",
			cfg.Clients, cfg.QueueDepth, cfg.Shards)
	}
	return snap, nil
}

// E22's storm: each client sends stormRequestsPerClient batches back
// to back, each with a one-second budget, far beyond the tens of
// milliseconds a full queue of batches takes to drain even under the
// race detector on a loaded machine.
const (
	stormRequestsPerClient = 4
	stormDeadlineMS        = 1000
)

// FlightTable renders E22 as a summary of the frozen postmortem: the
// trigger first, then every event family the ring retained with its
// count and most recent value.
func FlightTable(cfg ServeLoadConfig) (*stats.Table, error) {
	snap, err := FlightStorm(cfg)
	if err != nil {
		return nil, err
	}
	type key struct{ kind, name string }
	counts := make(map[key]int)
	last := make(map[key]float64)
	var keys []key
	for _, ev := range snap.Events {
		if ev.Kind == obs.FlightTrigger {
			continue // shown on its own row below
		}
		k := key{ev.Kind, ev.Name}
		if counts[k] == 0 {
			keys = append(keys, k)
		}
		counts[k]++
		last[k] = ev.Value
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].name < keys[j].name
	})
	t := stats.NewTable("kind", "event", "count", "last_value")
	if snap.Trigger != nil {
		t.AddRow(obs.FlightTrigger, snap.Trigger.Name, 1, snap.Trigger.Value)
	}
	for _, k := range keys {
		t.AddRow(k.kind, k.name, counts[k], last[k])
	}
	return t, nil
}
