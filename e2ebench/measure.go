package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// setupRuns is how many cold processes a run sets its workload up in;
// setup_s reports the median.
const setupRuns = 5

// sliceReqs is the requests of one slice of a streamed pass: at least
// ten of them lie beyond a slice's 90th percentile.
const sliceReqs = 100

// window accumulates the timed passes of one run. Only the passes
// themselves are timed: answer checks between passes, and the garbage
// collection that clears their allocations, stop the clock.
//
// The end-to-end figures are medians over short units, so that CPU time
// the hypervisor of a shared machine steals in bursts of a few
// milliseconds moves some units and not the medians:
//
//   - A cyclic window replays one fixed pass. Each request's latency is
//     the median of its round trips over the passes; the quantiles are
//     taken over these per-request medians, and throughput is the pass's
//     ops over their sum.
//   - A streamed window's passes continue the seeded stream. Each pass
//     is cut into slices of sliceReqs consecutive requests (the
//     remainder joins the last slice); throughput and the quantiles are
//     the medians of their per-slice values.
//
// CPU per op is the median of its per-pass values.
type window struct {
	cyclic bool
	passes [][]sample
	dur    time.Duration
	ops    int64
	cpu    []float64 // per-pass CPU µs per op
	steal  float64   // seconds of CPU stolen from the machine during passes
}

// sample is one request of a timed pass.
type sample struct {
	us  float64 // latency
	ops int64
}

// timed runs fn as one timed pass and folds it into the window; fn
// returns one sample per request, in order.
func (w *window) timed(fn func() []sample) {
	s0 := stealSeconds()
	c0 := cpuTime()
	t0 := time.Now()
	samples := fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	w.steal += stealSeconds() - s0
	w.dur += wall
	ops := opsOf(samples)
	w.ops += ops
	if ops > 0 {
		w.cpu = append(w.cpu, micros(cpu)/float64(ops))
	}
	w.passes = append(w.passes, samples)
}

func opsOf(samples []sample) int64 {
	var n int64
	for _, s := range samples {
		n += s.ops
	}
	return n
}

// latencyStats is the throughput and latency quantiles of one unit.
type latencyStats struct {
	rate, p50, p90 float64
}

// stats computes a unit's figures from its request latencies.
func stats(samples []sample) latencyStats {
	var us float64
	lat := make([]float64, len(samples))
	for i, s := range samples {
		us += s.us
		lat[i] = s.us
	}
	sort.Float64s(lat)
	rate := 0.0
	if us > 0 {
		rate = 1e6 * float64(opsOf(samples)) / us
	}
	return latencyStats{rate: rate, p50: quantile(lat, 0.50), p90: quantile(lat, 0.90)}
}

// latency returns the window's throughput and latency quantiles.
func (w *window) latency() latencyStats {
	if w.cyclic {
		return stats(w.perRequest())
	}
	var rate, p50, p90 []float64
	for _, samples := range w.passes {
		for from, n := 0, len(samples); from < n; {
			to := from + sliceReqs
			if n-to < sliceReqs {
				to = n
			}
			s := stats(samples[from:to])
			rate, p50, p90 = append(rate, s.rate), append(p50, s.p50), append(p90, s.p90)
			from = to
		}
	}
	return latencyStats{rate: median(rate), p50: median(p50), p90: median(p90)}
}

// perRequest returns, for each request of a cyclic window's pass, its
// median latency over the passes.
func (w *window) perRequest() []sample {
	if len(w.passes) == 0 {
		return nil
	}
	out := make([]sample, len(w.passes[0]))
	us := make([]float64, len(w.passes))
	for i := range out {
		for p, samples := range w.passes {
			us[p] = samples[i].us
		}
		out[i] = sample{us: median(us), ops: w.passes[0][i].ops}
	}
	return out
}

// endToEnd returns the end-to-end metrics of a finished window.
func (w *window) endToEnd(setup time.Duration) map[string]metric {
	l := w.latency()
	return map[string]metric{
		"ops_per_s":      {l.rate, "1/s"},
		"latency_p50_us": {l.p50, "us"},
		"latency_p90_us": {l.p90, "us"},
		"cpu_us_per_op":  {median(w.cpu), "us"},
		"setup_s":        {setup.Seconds(), "s"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
	}
}

// passCount is the number of timed passes of a run: the passes that
// take about seconds when a pass takes nominal seconds, and at least
// two. It depends on nothing measured, so that a seed and a --seconds
// give the same ops on every run, on any machine.
func passCount(seconds, nominal float64, tiny bool) int {
	if tiny {
		return 2
	}
	return max(2, int(math.Round(seconds/nominal)))
}

// latencyLine summarizes the window's request latencies for the info
// output: sample count, passes and quantiles over every sample.
func (w *window) latencyLine() string {
	var lat []float64
	for _, samples := range w.passes {
		for _, s := range samples {
			lat = append(lat, s.us)
		}
	}
	sort.Float64s(lat)
	return fmt.Sprintf("latency_us samples=%d passes=%d p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f",
		len(lat), len(w.passes), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999))
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the user plus system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// maxRSSMB is the peak resident set size of this process in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealSeconds is the CPU time the hypervisor took from this machine's
// CPUs since boot (the steal column of /proc/stat), or 0 where that is
// unavailable. Runs print how much of it fell in their window, so that
// a noisy figure can be traced to the machine.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// memDelta accumulates Go runtime allocation counters over timed passes.
type memDelta struct {
	allocs, bytes, gcs uint64
	ops                int64
	before             runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop(ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.gcs += uint64(after.NumGC - m.before.NumGC)
	m.ops += ops
}

func (m *memDelta) metrics(into map[string]metric) {
	if m.ops == 0 {
		return
	}
	ops := float64(m.ops)
	set(into, "runtime.allocs_per_op", float64(m.allocs)/ops)
	set(into, "runtime.bytes_per_op", float64(m.bytes)/ops)
	set(into, "runtime.gc_cycles_per_kop", 1000*float64(m.gcs)/ops)
}

// layerMetricUnits lists every per-layer metric with its unit. A traced
// run reports all of them; one that does not apply to the workload
// reads 0 (README.md says which apply where).
var layerMetricUnits = map[string]string{
	"serve.client_encode_us":       "us",
	"serve.server_decode_us":       "us",
	"serve.server_encode_us":       "us",
	"serve.client_decode_us":       "us",
	"serve.request_bytes":          "bytes",
	"serve.response_bytes":         "bytes",
	"serve.engine_hit_us":          "us",
	"serve.engine_miss_us":         "us",
	"serve.cache_hit_ratio":        "ratio",
	"serve.cache_evictions_per_op": "count",
	"serve.server_latency_mean_us": "us",
	"serve.queue_wait_us":          "us",
	"serve.rtt_unaccounted_us":     "us",
	"core.tier":                    "tier",
	"core.distance_us":             "us",
	"core.route_us":                "us",
	"core.nexthop_us":              "us",
	"core.route_over_distance":     "ratio",
	"core.router_distance_us":      "us",
	"core.route_linear_us":         "us",
	"deflect.layers_build_us":      "us",
	"deflect.step_self_us":         "us",
	"deflect.layers_per_cell":      "count",
	"deflect.deflection_rate":      "ratio",
	"network.openloop_us":          "us",
	"runtime.allocs_per_op":        "count",
	"runtime.bytes_per_op":         "bytes",
	"runtime.gc_cycles_per_kop":    "count",
	"bench.trace_overhead_frac":    "ratio",
}

// layerMetrics returns every per-layer metric at 0, ready to be filled.
func layerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerMetricUnits))
	for name, unit := range layerMetricUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// set stores value under a per-layer metric name with its listed unit.
func set(m map[string]metric, name string, value float64) {
	m[name] = metric{value, layerMetricUnits[name]}
}

// overhead compares the per-op cost of traced and untraced passes: the
// median traced cost over the median untraced cost, minus one.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}
