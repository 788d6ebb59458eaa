package serve

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunLoadClosedLoop checks the closed-loop generator's combined
// accounting: exact server-side conservation, client completions, and
// cache traffic on a hot set.
func TestRunLoadClosedLoop(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, CacheSize: 512, Registry: obs.NewRegistry()})
	res, err := RunLoad(s, LoadConfig{
		D: 2, K: 10,
		Clients:           4,
		RequestsPerClient: 50,
		HotSet:            8, // tiny vertex pool: cache hits guaranteed
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("not conserved: %+v", res)
	}
	if res.Sent != 4*50 {
		t.Fatalf("Sent = %d, want 200", res.Sent)
	}
	if res.Errors != 0 || res.Completed != res.Sent {
		t.Fatalf("client view: completed %d, errors %d, sent %d", res.Completed, res.Errors, res.Sent)
	}
	if res.Hits == 0 {
		t.Fatalf("no cache hits on an 8-vertex hot set: %+v", res)
	}
	if res.P99 < res.P50 {
		t.Fatalf("p99 %v < p50 %v", res.P99, res.P50)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
}

// TestRunLoadOpenLoop checks the open-loop generator paces and
// conserves. Rates are kept tiny so the test is timing-insensitive.
func TestRunLoadOpenLoop(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Registry: obs.NewRegistry()})
	res, err := RunLoad(s, LoadConfig{
		D: 2, K: 8,
		Clients:  2,
		Rate:     2000,
		Duration: 100 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("not conserved: %+v", res)
	}
	if res.Sent == 0 {
		t.Fatalf("open loop launched nothing: %+v", res)
	}
	if res.Completed+res.Errors > res.Sent {
		t.Fatalf("client saw more than was admitted: %+v", res)
	}
}

// TestRunLoadBatched checks the batched generator shape: each launch
// is one batch request (one admission, one outcome), so conservation
// counts frames, not sub-queries — and the registry-backed server-side
// latency quantiles come back populated.
func TestRunLoadBatched(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, CacheSize: 512, Registry: obs.NewRegistry()})
	res, err := RunLoad(s, LoadConfig{
		D: 2, K: 10,
		Clients:           2,
		RequestsPerClient: 10,
		BatchSize:         8,
		HotSet:            8,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved() {
		t.Fatalf("not conserved: %+v", res)
	}
	if res.Sent != 2*10 {
		t.Fatalf("Sent = %d, want 20 (batches count as one request each)", res.Sent)
	}
	if res.Hits == 0 {
		t.Fatalf("no cache hits across 160 sub-queries on an 8-vertex pool: %+v", res)
	}
	if res.ServerP99 <= 0 || res.ServerP99 < res.ServerP50 {
		t.Fatalf("server quantiles p50 %v, p99 %v", res.ServerP50, res.ServerP99)
	}
}

// TestRunLoadValidation rejects unusable network parameters.
func TestRunLoadValidation(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	if _, err := RunLoad(s, LoadConfig{D: 1, K: 4}); err == nil {
		t.Fatal("d = 1 accepted")
	}
	if _, err := RunLoad(s, LoadConfig{D: 2, K: 0}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := RunLoad(s, LoadConfig{D: 2, K: 4, BatchSize: MaxBatch + 1}); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestPercentile pins the nearest-rank convention.
func TestPercentile(t *testing.T) {
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
	lats := []time.Duration{4, 1, 3, 2} // sorted: 1 2 3 4
	if p := Percentile(lats, 0.5); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := Percentile(lats, 0.99); p != 4 {
		t.Fatalf("p99 = %v, want 4", p)
	}
	// The input must not be reordered.
	if lats[0] != 4 {
		t.Fatalf("percentile sorted its input: %v", lats)
	}
}
