// Package obs is the dependency-free observability layer of the
// routing stack: a registry of atomic counters, gauges and bucketed
// histograms with Prometheus-text and JSON exposition, a hop-level
// trace event schema shared by the network engines, and an opt-in
// debug HTTP endpoint (metrics + pprof).
//
// The package makes the §4 remark — "the constant factors of our
// linear algorithms are low enough to make these algorithms of
// practical use" — measurable as the system grows: every engine
// threads a *Registry through its hot path, and a nil *Registry (the
// default) degrades every instrument to a single nil check, so the
// disabled overhead on the routing hot path stays within noise.
//
// All instrument handles (*Counter, *Gauge, *Histogram) and the
// *Registry itself are nil-safe: methods on nil receivers are no-ops
// returning zero values. Engines therefore resolve their instruments
// once at construction and call them unconditionally.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored: counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative-style buckets with
// fixed upper bounds (a final +Inf bucket is implicit). Observation
// and snapshotting are lock-free. Each bucket additionally retains an
// exemplar — the trace id of the most recent sampled observation that
// landed in it — so a latency outlier in a bucket can be chased down
// to the full per-request trace that produced it.
type Histogram struct {
	bounds    []float64       // sorted upper bounds
	counts    []atomic.Int64  // len(bounds)+1; last is the +Inf bucket
	exemplars []atomic.Uint64 // len(bounds)+1 trace ids; 0 = none
	count     atomic.Int64
	sum       atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one observation and, when id is nonzero,
// stores it as the covering bucket's exemplar (most recent wins).
func (h *Histogram) ObserveExemplar(v float64, id TraceID) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	if id != 0 {
		h.exemplars[i].Store(uint64(id))
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HopBuckets suits hop-count distributions (diameter-scale values).
var HopBuckets = []float64{1, 2, 4, 8, 16, 24, 32, 48, 64, 128}

// NsBuckets suits nanosecond latency distributions: 100ns to ~1s,
// roughly one bucket per half decade.
var NsBuckets = ExpBuckets(100, 4, 12)

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named instruments. The zero value is not usable; a
// nil *Registry is: every lookup returns a nil instrument whose
// methods are no-ops, which is how instrumentation is disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
// The bounds of the first registration win; they are copied and
// sorted.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{
			bounds:    bs,
			counts:    make([]atomic.Int64, len(bs)+1),
			exemplars: make([]atomic.Uint64, len(bs)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Label returns name{key="value"} — the convention for labelled
// counter names in this registry (the exposition writers emit the
// name verbatim, which is valid Prometheus text).
func Label(name, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}

// baseName strips a {label...} suffix.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, names sorted. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	lastType := ""
	for _, n := range names {
		if b := baseName(n); b != lastType {
			lastType = b
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", b); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, snap.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", baseName(n), n, formatFloat(snap.Gauges[n])); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			n, h.Count, n, formatFloat(h.Sum), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders a Snapshot of every instrument as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// HistogramSnapshot is the frozen state of one histogram. Exemplars
// holds, per bucket (last entry is +Inf), the trace id of the most
// recent sampled observation that landed there; zero means none.
type HistogramSnapshot struct {
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"` // per-bucket (not cumulative); last is +Inf
	Exemplars []TraceID `json:"exemplars,omitempty"`
	Sum       float64   `json:"sum"`
	Count     int64     `json:"count"`
}

// Quantile estimates the q-quantile from the bucket counts: rank-walk
// to the covering bucket, then interpolate linearly inside it. These
// are estimates, not exact order statistics, but enough to compare
// against bucket-scale SLOs. Edge cases are pinned, not implicit:
//
//   - An empty snapshot (zero Count, no Counts, or no finite Bounds)
//     returns 0.
//   - q is clamped into [0, 1]; NaN is treated as 0.
//   - q = 0 returns the lower edge of the first occupied bucket (0 for
//     the first bucket).
//   - q = 1 returns the upper bound of the last occupied bucket;
//     observations in the +Inf bucket clamp to the last finite bound,
//     which is also the fallback whenever the rank walk runs off the
//     end.
//   - A single-bucket histogram interpolates inside [0, Bounds[0]]
//     like any other bucket.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 || len(h.Counts) == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			break // +Inf bucket
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + frac*(h.Bounds[i]-lo)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Diff returns the histogram of observations made since prev (counts
// and sum subtracted bucket-wise; exemplars keep the current,
// most-recent values). Mismatched bucket layouts return h unchanged.
func (h HistogramSnapshot) Diff(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) != len(h.Counts) {
		return h
	}
	d := HistogramSnapshot{
		Bounds:    append([]float64(nil), h.Bounds...),
		Counts:    append([]int64(nil), h.Counts...),
		Exemplars: append([]TraceID(nil), h.Exemplars...),
		Sum:       h.Sum - prev.Sum,
		Count:     h.Count - prev.Count,
	}
	for i := range d.Counts {
		d.Counts[i] -= prev.Counts[i]
	}
	return d
}

// Snapshot is a frozen copy of a registry, comparable across time.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry. A nil registry yields empty maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		for i := range h.exemplars {
			if id := h.exemplars[i].Load(); id != 0 {
				if hs.Exemplars == nil {
					hs.Exemplars = make([]TraceID, len(h.exemplars))
				}
				hs.Exemplars[i] = TraceID(id)
			}
		}
		s.Histograms[n] = hs
	}
	return s
}

// Counter returns the snapshotted value of a counter (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshotted value of a gauge (0 if absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Histogram returns the snapshotted state of a histogram (zero value
// if absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// CounterSum sums every counter whose base name (label-stripped)
// equals base — e.g. all dn_drops_total{reason=...} series.
func (s Snapshot) CounterSum(base string) int64 {
	var sum int64
	for n, v := range s.Counters {
		if baseName(n) == base {
			sum += v
		}
	}
	return sum
}

// Diff returns a snapshot holding the change since prev: counter and
// histogram counts are subtracted, gauges keep their current value.
// The diff API is how tests assert "this operation incremented
// exactly these metrics".
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for n, v := range s.Counters {
		if d := v - prev.Counters[n]; d != 0 {
			out.Counters[n] = d
		}
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, h := range s.Histograms {
		p, ok := prev.Histograms[n]
		d := HistogramSnapshot{
			Bounds: append([]float64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			// Exemplars are most-recent-wins, not cumulative: the diff
			// keeps the current ones.
			Exemplars: append([]TraceID(nil), h.Exemplars...),
			Sum:       h.Sum,
			Count:     h.Count,
		}
		if ok && len(p.Counts) == len(h.Counts) {
			for i := range d.Counts {
				d.Counts[i] -= p.Counts[i]
			}
			d.Sum -= p.Sum
			d.Count -= p.Count
		}
		if d.Count != 0 {
			out.Histograms[n] = d
		}
	}
	return out
}
