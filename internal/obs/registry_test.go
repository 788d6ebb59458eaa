package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("msgs_total") != c {
		t.Error("second lookup returned a different counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Set(2.0)
	if got := g.Value(); got != 2.0 {
		t.Errorf("gauge = %v, want 2", got)
	}

	h := r.Histogram("hops", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("hist sum = %v, want 106.5", h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["hops"]
	want := []int64{2, 1, 1, 1} // ≤1, ≤2, ≤4, +Inf
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", HopBuckets).Observe(3)
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Counter("a") != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("dn_sent_total").Add(7)
	r.Counter(Label("dn_drops_total", "reason", "ttl exceeded")).Inc()
	r.Gauge("dn_gini").Set(0.25)
	r.Histogram("dn_hops", []float64{1, 2}).Observe(2)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dn_sent_total counter\ndn_sent_total 7\n",
		"dn_drops_total{reason=\"ttl exceeded\"} 1",
		"# TYPE dn_gini gauge\ndn_gini 0.25\n",
		"dn_hops_bucket{le=\"2\"} 1",
		"dn_hops_bucket{le=\"+Inf\"} 1",
		"dn_hops_sum 2",
		"dn_hops_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if snap.Counter("a_total") != 3 {
		t.Errorf("round-tripped counter = %d", snap.Counter("a_total"))
	}
	if snap.Histograms["h"].Count != 1 {
		t.Errorf("round-tripped histogram = %+v", snap.Histograms["h"])
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	h := r.Histogram("lat", []float64{10, 100})
	c.Add(2)
	h.Observe(5)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(50)
	h.Observe(50)
	r.Gauge("depth").Set(9)
	diff := r.Snapshot().Diff(before)
	if diff.Counter("ops_total") != 3 {
		t.Errorf("diff counter = %d, want 3", diff.Counter("ops_total"))
	}
	if d := diff.Histograms["lat"]; d.Count != 2 || d.Counts[1] != 2 || d.Sum != 100 {
		t.Errorf("diff histogram = %+v", d)
	}
	if diff.Gauge("depth") != 9 {
		t.Errorf("diff gauge = %v, want current value 9", diff.Gauge("depth"))
	}
}

func TestCounterSum(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("drops_total", "reason", "a")).Add(2)
	r.Counter(Label("drops_total", "reason", "b")).Add(5)
	r.Counter("other_total").Add(100)
	if got := r.Snapshot().CounterSum("drops_total"); got != 7 {
		t.Errorf("CounterSum = %d, want 7", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", HopBuckets).Observe(float64(j % 64))
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counter("c_total") != 8000 {
		t.Errorf("counter = %d, want 8000", snap.Counter("c_total"))
	}
	// Every goroutine's last store is 999.
	if snap.Gauge("g") != 999 {
		t.Errorf("gauge = %v, want 999", snap.Gauge("g"))
	}
	if snap.Histograms["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", snap.Histograms["h"].Count)
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	snap := r.Snapshot().Histogram("q")
	if p50 := snap.Quantile(0.50); p50 <= 0 || p50 > 10 {
		t.Errorf("p50 = %v, want in (0, 10]", p50)
	}
	if p99 := snap.Quantile(0.99); p99 <= 100 || p99 > 1000 {
		t.Errorf("p99 = %v, want in (100, 1000]", p99)
	}
	// Observations beyond the last finite bound clamp to it.
	for i := 0; i < 100; i++ {
		h.Observe(5000)
	}
	if p99 := r.Snapshot().Histogram("q").Quantile(0.99); p99 != 1000 {
		t.Errorf("p99 with +Inf mass = %v, want clamp to 1000", p99)
	}
	// Empty and absent histograms report 0.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := r.Snapshot().Histogram("absent").Quantile(0.5); got != 0 {
		t.Errorf("absent Quantile = %v, want 0", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()

	// Registered but never observed: Count == 0 reports 0.
	empty := r.Histogram("empty", []float64{1, 2})
	_ = empty
	if got := r.Snapshot().Histogram("empty").Quantile(0.5); got != 0 {
		t.Errorf("unobserved Quantile = %v, want 0", got)
	}

	// Single bucket: interpolation inside [0, bound].
	single := r.Histogram("single", []float64{10})
	for i := 0; i < 4; i++ {
		single.Observe(5)
	}
	snap := r.Snapshot().Histogram("single")
	if got := snap.Quantile(0.5); got != 5 {
		t.Errorf("single-bucket p50 = %v, want 5 (midpoint of [0,10])", got)
	}
	if got := snap.Quantile(0); got != 0 {
		t.Errorf("single-bucket q=0 = %v, want lower edge 0", got)
	}
	if got := snap.Quantile(1); got != 10 {
		t.Errorf("single-bucket q=1 = %v, want upper bound 10", got)
	}

	// q=0 lands on the lower edge of the first occupied bucket; q=1 on
	// the upper bound of the last occupied one.
	multi := r.Histogram("multi", []float64{1, 10, 100})
	multi.Observe(5)  // bucket (1,10]
	multi.Observe(50) // bucket (10,100]
	ms := r.Snapshot().Histogram("multi")
	if got := ms.Quantile(0); got != 1 {
		t.Errorf("q=0 = %v, want 1 (lower edge of first occupied bucket)", got)
	}
	if got := ms.Quantile(1); got != 100 {
		t.Errorf("q=1 = %v, want 100 (upper bound of last occupied bucket)", got)
	}

	// Out-of-range and NaN q are clamped, never panic.
	if got := ms.Quantile(-3); got != ms.Quantile(0) {
		t.Errorf("q=-3 = %v, want clamp to q=0 (%v)", got, ms.Quantile(0))
	}
	if got := ms.Quantile(7); got != ms.Quantile(1) {
		t.Errorf("q=7 = %v, want clamp to q=1 (%v)", got, ms.Quantile(1))
	}
	if got := ms.Quantile(math.NaN()); got != ms.Quantile(0) {
		t.Errorf("q=NaN = %v, want clamp to q=0 (%v)", got, ms.Quantile(0))
	}

	// All mass in +Inf clamps to the last finite bound.
	inf := r.Histogram("inf", []float64{1, 2})
	inf.Observe(1e9)
	if got := r.Snapshot().Histogram("inf").Quantile(0.5); got != 2 {
		t.Errorf("+Inf-only p50 = %v, want last finite bound 2", got)
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100})

	// Unsampled observations leave no exemplars (and allocate none in
	// the snapshot).
	h.Observe(5)
	if ex := r.Snapshot().Histogram("lat").Exemplars; ex != nil {
		t.Errorf("exemplars without sampled observations = %v, want nil", ex)
	}

	// A sampled observation pins its trace id at the covering bucket;
	// most recent wins.
	h.ObserveExemplar(5, 0xaaa)
	h.ObserveExemplar(7, 0xbbb)
	h.ObserveExemplar(50, 0xccc)
	h.ObserveExemplar(1e9, 0xddd) // +Inf bucket
	ex := r.Snapshot().Histogram("lat").Exemplars
	if len(ex) != 3 {
		t.Fatalf("exemplars len = %d, want 3 (2 bounds + Inf)", len(ex))
	}
	if ex[0] != 0xbbb || ex[1] != 0xccc || ex[2] != 0xddd {
		t.Errorf("exemplars = %v, want [bbb ccc ddd]", ex)
	}

	// ObserveExemplar with id 0 counts but never clears an exemplar.
	h.ObserveExemplar(5, 0)
	if got := r.Snapshot().Histogram("lat").Exemplars[0]; got != 0xbbb {
		t.Errorf("exemplar after unsampled observation = %v, want 0xbbb kept", got)
	}

	// Exemplars survive Snapshot.Diff (most-recent-wins, not subtracted)
	// and round-trip through JSON as hex strings.
	before := Snapshot{Histograms: map[string]HistogramSnapshot{}}
	diff := r.Snapshot().Diff(before)
	if got := diff.Histogram("lat").Exemplars; len(got) != 3 || got[1] != 0xccc {
		t.Errorf("diff exemplars = %v", got)
	}
	b, err := json.Marshal(r.Snapshot().Histogram("lat"))
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Exemplars) != 3 || back.Exemplars[2] != 0xddd {
		t.Errorf("round-tripped exemplars = %v", back.Exemplars)
	}

	// Nil histogram stays a no-op.
	var nh *Histogram
	nh.ObserveExemplar(1, 0x1)
}
