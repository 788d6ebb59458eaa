package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLoadZipfHotspotShape: the skewed shapes must actually skew — a
// HotspotFrac of 0.5 sends about half the scalar queries to pool rank
// 0 — while conservation stays exact.
func TestLoadZipfHotspotShape(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, CacheSize: 256, Registry: obs.NewRegistry()})
	cfg := LoadConfig{
		D: 2, K: 8,
		Clients:           2,
		RequestsPerClient: 200,
		ZipfS:             1.5,
		HotspotFrac:       0.5,
		HotSet:            64,
		Seed:              11,
	}
	hot := poolWord(cfg, 0).String()
	var total, toHot atomic.Int64
	cfg.Observer = func(req Request, resp Response) {
		if req.Kind == "batch" {
			return
		}
		total.Add(1)
		if req.Dst == hot {
			toHot.Add(1)
		}
	}
	res, err := RunLoad(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("conservation broken: %+v", res)
	}
	if res.Completed != 400 || res.Errors != 0 {
		t.Fatalf("completed %d, errors %d, want 400/0", res.Completed, res.Errors)
	}
	frac := float64(toHot.Load()) / float64(total.Load())
	if frac < 0.4 || frac > 0.7 {
		t.Fatalf("hotspot fraction %.2f, want ≈0.5 (plus zipf draws of rank 0)", frac)
	}
}

// TestLoadZipfValidation: a Zipf exponent in (0, 1] is rejected (the
// stdlib generator requires s > 1).
func TestLoadZipfValidation(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	if _, err := RunLoad(s, LoadConfig{D: 2, K: 4, ZipfS: 0.9}); err == nil {
		t.Fatal("ZipfS 0.9 accepted")
	}
	if _, err := RunLoad(s, LoadConfig{D: 2, K: 4, Rate: 100, Schedule: []RatePhase{{Rate: 1, Duration: time.Millisecond}}}); err == nil {
		t.Fatal("Rate and Schedule together accepted")
	}
}

// TestLoadConfigValidateTyped: every out-of-range shape knob is
// rejected at config time with an error wrapping ErrLoadConfig —
// the regression gate for the ZipfS ∈ (0,1] generator panic.
func TestLoadConfigValidateTyped(t *testing.T) {
	bad := []LoadConfig{
		{D: 1, K: 4},                          // degree too small
		{D: 2, K: 0},                          // empty words
		{D: 2, K: 4, ZipfS: 0.5},              // the documented panic range
		{D: 2, K: 4, ZipfS: 1},                // boundary: rand.NewZipf needs s > 1
		{D: 2, K: 4, ZipfS: -2},               // negative exponent
		{D: 2, K: 4, Rate: -10},               // negative offered rate
		{D: 2, K: 4, Clients: -1},             // negative count knob
		{D: 2, K: 4, HotSet: -8},              // negative pool
		{D: 2, K: 4, BatchSize: -1},           // negative batch
		{D: 2, K: 4, BatchSize: MaxBatch + 1}, // oversized batch
		{D: 2, K: 4, BatchFrac: 1.5},          // fraction outside [0,1]
		{D: 2, K: 4, HotspotFrac: -0.1},       // fraction outside [0,1]
		{D: 2, K: 4, Rate: 5, Schedule: []RatePhase{{Rate: 1, Duration: 1}}},       // both loops
		{D: 2, K: 4, Schedule: []RatePhase{{Rate: 0, Duration: time.Millisecond}}}, // dead phase
		{D: 2, K: 4, Transport: NewMemTransport()},                                 // transport, no addr
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrLoadConfig) {
			t.Errorf("bad config %d: Validate() = %v, want ErrLoadConfig", i, err)
		}
	}
	// RunLoad surfaces the same typed error without starting the run.
	s := newTestServer(t, Config{Shards: 1})
	if _, err := RunLoad(s, LoadConfig{D: 2, K: 4, ZipfS: 0.9}); !errors.Is(err, ErrLoadConfig) {
		t.Fatalf("RunLoad(ZipfS 0.9) = %v, want ErrLoadConfig", err)
	}

	// In-range shapes still validate: the defaults-filled zero config
	// and every knob at its documented extreme.
	good := []LoadConfig{
		{D: 2, K: 4},
		{D: 2, K: 4, ZipfS: 1.1, HotspotFrac: 1, BatchFrac: 1, BatchSize: MaxBatch},
		{D: 2, K: 4, Schedule: []RatePhase{{Rate: 50, Duration: time.Millisecond}}},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
}

// TestLoadFlashCrowdSchedule: a low/high/low staircase runs for the
// summed phase durations and conserves exactly; the spike phase must
// offer visibly more than the shoulders.
func TestLoadFlashCrowdSchedule(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, QueueDepth: 64, DefaultDeadline: 50 * time.Millisecond, Registry: obs.NewRegistry()})
	res, err := RunLoad(s, LoadConfig{
		D: 2, K: 8,
		Clients: 2,
		Schedule: []RatePhase{
			{Rate: 200, Duration: 100 * time.Millisecond},
			{Rate: 4000, Duration: 100 * time.Millisecond},
			{Rate: 200, Duration: 100 * time.Millisecond},
		},
		MaxInFlight:    2048,
		RequestTimeout: 2 * time.Second,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("conservation broken: %+v", res)
	}
	if res.Elapsed < 300*time.Millisecond {
		t.Fatalf("run ended after %v, want ≥ 300ms of schedule", res.Elapsed)
	}
	// 200+4000+200 req/s over 100ms each ≈ 440 requests offered; the
	// exact count depends on pacing granularity, but the spike must
	// dominate the shoulders.
	if res.Sent < 250 {
		t.Fatalf("only %d sent; flash crowd did not materialize", res.Sent)
	}
}

// TestLoadBatchScalarMix: BatchFrac mixes batch and scalar launches in
// one run.
func TestLoadBatchScalarMix(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Registry: obs.NewRegistry()})
	var batches, scalars atomic.Int64
	res, err := RunLoad(s, LoadConfig{
		D: 2, K: 8,
		Clients:           2,
		RequestsPerClient: 100,
		BatchSize:         8,
		BatchFrac:         0.5,
		Seed:              3,
		Observer: func(req Request, resp Response) {
			if req.Kind == "batch" {
				batches.Add(1)
			} else {
				scalars.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("conservation broken: %+v", res)
	}
	if batches.Load() == 0 || scalars.Load() == 0 {
		t.Fatalf("mix degenerate: %d batches, %d scalars", batches.Load(), scalars.Load())
	}
}

// TestLoadThroughChaosTransport drives the generator through a
// dropping, severing link: requests time out, connections die and are
// redialed, and the server-side conservation identity still holds
// exactly — the tentpole wired together at the smallest scale.
func TestLoadThroughChaosTransport(t *testing.T) {
	mem := NewMemTransport()
	ln, err := mem.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Shards:          2,
		QueueDepth:      256,
		CacheSize:       256,
		DefaultDeadline: 500 * time.Millisecond,
		WriteTimeout:    500 * time.Millisecond,
		Registry:        obs.NewRegistry(),
	})
	go s.Serve(ln)
	ct := NewChaosTransport(mem, ChaosConfig{
		Seed:      9,
		DropFrac:  0.05,
		SeverFrac: 0.02,
		Latency:   50 * time.Microsecond,
	})
	ct.SetEnabled(true)

	res, err := RunLoad(s, LoadConfig{
		D: 2, K: 8,
		Clients:           4,
		RequestsPerClient: 150,
		HotSet:            64,
		Seed:              21,
		Transport:         ct,
		Addr:              "srv",
		RequestTimeout:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("conservation broken under chaos: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed through the chaotic link")
	}
	if res.Errors == 0 {
		t.Fatal("a 5% drop schedule produced zero client errors — chaos not wired through")
	}
	st := ct.Stats()
	if st.Dropped == 0 || st.Severed == 0 {
		t.Fatalf("chaos stats flat: %+v", st)
	}
	if res.Redials == 0 {
		t.Fatal("severed connections were never redialed")
	}
}
