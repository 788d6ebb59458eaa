// Command dbbench runs the routing benchmarks outside the `go test`
// harness and writes a machine-readable report, so CI and the Makefile
// (`make bench-json`) can archive ns/op and allocs/op without parsing
// benchmark text:
//
//	dbbench -out BENCH_core.json                      # core suite (default)
//	dbbench -suite network -out BENCH_network.json    # whole-engine runs
//	dbbench -out - -benchtime 10ms                    # quick run to stdout
//	dbbench -compare BENCH_core.json                  # perf gate vs baseline
//
// With -compare, the fresh measurements are checked cell-by-cell
// against a committed baseline report and the exit status is nonzero
// if any cell regressed: ns/op beyond -tol-ns (a fraction, generous by
// default because CI machines are noisy) or allocs/op beyond the
// baseline plus max(8, 25%). Allocation counts are deterministic, so
// the tight allocs gate is the one that catches a pooled kernel
// quietly falling back to per-call allocation. The baseline is read
// before -out is written, so comparing against the file being
// refreshed works; -compare without an explicit -out runs compare-only
// and writes nothing.
//
// The core suite measures per-call routing primitives over a fixed
// pool of seeded random word pairs: Router (reusable Router.Route),
// Distance (Theorem 2, O(k)), Route (Algorithm 4, O(k)). The network
// suite measures whole seeded simulation runs per iteration:
// Contention (batch store-and-forward), OpenLoop (Bernoulli-arrival
// store-and-forward), Deflect (bufferless deflection, layer-aware).
// The serve suite measures the route-query serving engine per call:
// ServeHit* (warmed LRU lookups, pinned at 0 allocs/op) and ServeMiss*
// (cache-disabled computes at the kernels' allocation budgets), plus
// ServeWireRoute, the wire codec's share of one route round trip.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

// Result is one benchmark cell of the report.
type Result struct {
	Op          string  `json:"op"`
	D           int     `json:"d"`
	K           int     `json:"k"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH_core.json / BENCH_network.json schema.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// Schema identifies the core-suite report layout for consumers.
const Schema = "dbbench/core/v1"

// SchemaNetwork identifies the network-suite report layout.
const SchemaNetwork = "dbbench/network/v1"

// SchemaServe identifies the serve-suite report layout.
const SchemaServe = "dbbench/serve/v1"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbbench", flag.ContinueOnError)
	suite := fs.String("suite", "core", "benchmark suite: core (per-call primitives) | network (whole engine runs) | serve (query engine hit/miss paths and wire codec)")
	outPath := fs.String("out", "", `output file ("-" for stdout; default BENCH_<suite>.json)`)
	benchtime := fs.String("benchtime", "100ms", "per-benchmark duration (test.benchtime syntax)")
	d := fs.Int("d", 2, "alphabet size")
	ks := fs.String("k", "", `comma-separated word lengths (default "8,64,512" core, "5,7" network, "8,64,256" serve)`)
	compare := fs.String("compare", "", "baseline report to compare against; regressions exit nonzero")
	tolNs := fs.Float64("tol-ns", 0.75, "allowed fractional ns/op slowdown vs the baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schema := Schema
	cells := benchCells
	switch *suite {
	case "core":
		if *ks == "" {
			*ks = "8,64,512"
		}
	case "network":
		schema = SchemaNetwork
		cells = benchNetworkCells
		if *ks == "" {
			*ks = "5,7"
		}
	case "serve":
		schema = SchemaServe
		cells = benchServeCells
		if *ks == "" {
			*ks = "8,64,256"
		}
	default:
		return fmt.Errorf("unknown suite %q", *suite)
	}
	if *outPath == "" && *compare == "" {
		*outPath = fmt.Sprintf("BENCH_%s.json", *suite)
	}
	// Read the baseline before any output is written so that comparing
	// against the very file -out is about to refresh sees the old data.
	var baseline *Report
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			return err
		}
		baseline = new(Report)
		if err := json.Unmarshal(data, baseline); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", *compare, err)
		}
		if baseline.Schema != schema {
			return fmt.Errorf("baseline %s has schema %q, want %q (wrong -suite?)", *compare, baseline.Schema, schema)
		}
	}
	// testing.Benchmark honors the test.benchtime flag; registering the
	// testing flags in a normal binary requires testing.Init first.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}

	rep := Report{
		Schema:    schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: *benchtime,
	}
	for _, ktok := range strings.Split(*ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(ktok))
		if err != nil {
			return fmt.Errorf("parsing -k %q: %w", ktok, err)
		}
		cs, err := cells(*d, k)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, cs...)
		fmt.Fprintf(out, "d=%d k=%d done\n", *d, k)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	switch *outPath {
	case "": // compare-only
	case "-":
		if _, err := out.Write(data); err != nil {
			return err
		}
	default:
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d results)\n", *outPath, len(rep.Results))
	}
	if baseline != nil {
		regs, compared := compareReports(*baseline, rep, *tolNs)
		for _, r := range regs {
			fmt.Fprintln(out, "regression:", r)
		}
		if len(regs) > 0 {
			return fmt.Errorf("%d regression(s) vs baseline %s", len(regs), *compare)
		}
		fmt.Fprintf(out, "no regressions vs %s (%d cells compared)\n", *compare, compared)
	}
	return nil
}

// cellKey identifies one benchmark cell across reports.
type cellKey struct {
	Op   string
	D, K int
}

// compareReports checks every fresh cell that also exists in the
// baseline. A cell regresses when ns/op exceeds baseline×(1+tolNs) or
// allocs/op exceeds baseline + max(8, baseline/4). Cells only in one
// report are skipped, so a baseline from a wider -k sweep still gates
// a quick run.
func compareReports(base, cur Report, tolNs float64) (regs []string, compared int) {
	baseBy := make(map[cellKey]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[cellKey{r.Op, r.D, r.K}] = r
	}
	for _, c := range cur.Results {
		b, ok := baseBy[cellKey{c.Op, c.D, c.K}]
		if !ok {
			continue
		}
		compared++
		if limit := b.NsPerOp * (1 + tolNs); c.NsPerOp > limit {
			regs = append(regs, fmt.Sprintf("%s d=%d k=%d: %.1f ns/op, baseline %.1f (limit %.1f)",
				c.Op, c.D, c.K, c.NsPerOp, b.NsPerOp, limit))
		}
		slack := b.AllocsPerOp / 4
		if slack < 8 {
			slack = 8
		}
		if c.AllocsPerOp > b.AllocsPerOp+slack {
			regs = append(regs, fmt.Sprintf("%s d=%d k=%d: %d allocs/op, baseline %d (limit %d)",
				c.Op, c.D, c.K, c.AllocsPerOp, b.AllocsPerOp, b.AllocsPerOp+slack))
		}
	}
	return regs, compared
}

// benchCells measures the core ops at one (d,k) point: the scratch
// primitives (Router/Distance/Route), then the tiered kernel engine —
// PackedDistance/PackedRoute on the bit-packed tier (falling back to
// scratch where the alphabet doesn't pack), TableDistance/TableRoute
// on the rank-table tier when (d,k) fits the default budget, and
// BatchDistance through a batch frame that amortizes packing across
// the pair pool.
func benchCells(d, k int) ([]Result, error) {
	rng := rand.New(rand.NewSource(17))
	pairs := make([][2]word.Word, 64)
	for i := range pairs {
		pairs[i] = [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)}
	}
	router := core.NewRouter(k)
	packed := core.NewKernels(core.KernelConfig{TableBudget: -1})
	tabled := core.NewKernels(core.KernelConfig{SyncTableBuild: true})
	type coreOp struct {
		name string
		fn   func(x, y word.Word) error
	}
	ops := []coreOp{
		{"Router", func(x, y word.Word) error { _, err := router.Route(x, y); return err }},
		{"Distance", func(x, y word.Word) error { _, err := core.UndirectedDistanceLinear(x, y); return err }},
		{"Route", func(x, y word.Word) error { _, err := core.RouteUndirectedLinear(x, y); return err }},
		{"PackedDistance", func(x, y word.Word) error { _, err := packed.UndirectedDistance(x, y); return err }},
		{"PackedRoute", func(x, y word.Word) error { _, err := packed.RouteUndirected(x, y); return err }},
	}
	if tabled.TierFor(d, k) == core.TierTable {
		ops = append(ops,
			coreOp{"TableDistance", func(x, y word.Word) error { _, err := tabled.UndirectedDistance(x, y); return err }},
			coreOp{"TableRoute", func(x, y word.Word) error { _, err := tabled.RouteUndirected(x, y); return err }},
		)
	}
	out := make([]Result, 0, len(ops))
	for _, op := range ops {
		fn := op.fn
		var failure error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if err := fn(p[0], p[1]); err != nil {
					failure = err
					b.FailNow()
				}
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("%s d=%d k=%d: %w", op.name, d, k, failure)
		}
		out = append(out, Result{
			Op: op.name, D: d, K: k,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	// BatchDistance: per-query cost through a batch frame, including the
	// amortized cost of repacking the frame once per pass over the pool.
	{
		var failure error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fr := packed.Frame()
			for i := 0; i < b.N; i++ {
				j := i % len(pairs)
				if j == 0 {
					fr = packed.Frame()
					for _, p := range pairs {
						if _, err := fr.Add(p[0], p[1]); err != nil {
							failure = err
							b.FailNow()
						}
					}
				}
				if _, err := fr.UndirectedDistance(j); err != nil {
					failure = err
					b.FailNow()
				}
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("BatchDistance d=%d k=%d: %w", d, k, failure)
		}
		out = append(out, Result{
			Op: "BatchDistance", D: d, K: k,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	return out, nil
}

// benchServeCells measures the route-query serving engine's hot paths
// at one (d,k) point: cache hits (ServeHit*) over a warmed LRU, and
// cache-disabled computes (ServeMiss*) — the two per-request costs the
// server pays at steady state. Allocs/op are the PR acceptance pins:
// 0 for every hit and for distance misses, 1 (the returned path) for
// route misses.
func benchServeCells(d, k int) ([]Result, error) {
	rng := rand.New(rand.NewSource(17))
	pairs := make([][2]word.Word, 64)
	for i := range pairs {
		pairs[i] = [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)}
	}
	warm := serve.NewEngine(serve.NewCache(4*len(pairs), nil))
	cold := serve.NewEngine(nil)
	for _, p := range pairs {
		for _, kind := range []serve.Kind{serve.KindDistance, serve.KindRoute} {
			q := serve.Query{Kind: kind, Src: p[0], Dst: p[1]}
			if _, _, err := warm.Answer(q, serve.LevelFull); err != nil {
				return nil, err
			}
			if _, _, err := cold.Answer(q, serve.LevelFull); err != nil {
				return nil, err
			}
		}
	}
	ops := []struct {
		name   string
		eng    *serve.Engine
		kind   serve.Kind
		traced bool
	}{
		{"ServeHitDistance", warm, serve.KindDistance, false},
		{"ServeHitRoute", warm, serve.KindRoute, false},
		{"ServeMissDistance", cold, serve.KindDistance, false},
		{"ServeMissRoute", cold, serve.KindRoute, false},
		// Traced variants measure the sampled-request path: a fresh
		// ReqTrace per call plus the span and hop-event recording the
		// engine does when one is attached. This is the 1-in-N cost;
		// the untraced cells above stay the pinned disabled-path
		// budgets.
		{"ServeHitRouteTraced", warm, serve.KindRoute, true},
		{"ServeMissRouteTraced", cold, serve.KindRoute, true},
	}
	out := make([]Result, 0, len(ops))
	for _, op := range ops {
		eng, kind, traced := op.eng, op.kind, op.traced
		var failure error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				q := serve.Query{Kind: kind, Src: p[0], Dst: p[1]}
				var tr *obs.ReqTrace
				if traced {
					tr = obs.NewReqTrace(obs.TraceID(i+1), kind.String(), "", time.Now())
				}
				if _, _, err := eng.AnswerTraced(q, serve.LevelFull, tr); err != nil {
					failure = err
					b.FailNow()
				}
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("%s d=%d k=%d: %w", op.name, d, k, failure)
		}
		out = append(out, Result{
			Op: op.name, D: d, K: k,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	// ServeBatch* cells: per-query cost of the batch path — the worker
	// calls BeginBatch once per batch (packing every query into the
	// kernel frame) and answers each sub-query through it. The
	// BeginBatch cost is amortized across one pass over the pool, the
	// same shape the server's answerTask loop produces.
	for _, kind := range []serve.Kind{serve.KindDistance, serve.KindNextHop} {
		qs := make([]serve.Query, len(pairs))
		for i, p := range pairs {
			qs[i] = serve.Query{Kind: kind, Src: p[0], Dst: p[1]}
		}
		var failure error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(qs)
				if j == 0 {
					cold.BeginBatch(qs)
				}
				if _, _, err := cold.AnswerBatchTraced(j, qs[j], serve.LevelFull, nil); err != nil {
					failure = err
					b.FailNow()
				}
			}
		})
		name := "ServeBatchDistance"
		if kind == serve.KindNextHop {
			name = "ServeBatchNextHop"
		}
		if failure != nil {
			return nil, fmt.Errorf("%s d=%d k=%d: %w", name, d, k, failure)
		}
		out = append(out, Result{
			Op: name, D: d, K: k,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	wire, err := benchWireRoute(d, k, pairs, cold)
	if err != nil {
		return nil, err
	}
	return append(out, wire), nil
}

// benchWireRoute measures ServeWireRoute: the wire codec's share of one
// route round trip through the exported frame API — the client encodes
// the request frame, the server reads and decodes it, encodes the
// route response frame, and the client reads and decodes that. The
// allocations are the frames' read buffers, the request's two
// addresses and the response's path.
func benchWireRoute(d, k int, pairs [][2]word.Word, eng *serve.Engine) (Result, error) {
	reqs := make([]serve.Request, len(pairs))
	resps := make([]serve.Response, len(pairs))
	for i, p := range pairs {
		a, _, err := eng.Answer(serve.Query{Kind: serve.KindRoute, Src: p[0], Dst: p[1]}, serve.LevelFull)
		if err != nil {
			return Result{}, err
		}
		reqs[i] = serve.RouteRequest(p[0], p[1], serve.Undirected)
		reqs[i].ID = uint64(i + 1)
		resps[i] = serve.Response{ID: uint64(i + 1), Status: serve.StatusOK, Distance: a.Distance, Path: make([]string, len(a.Path))}
		for j, h := range a.Path {
			resps[i].Path[j] = serve.FormatHop(h)
		}
	}
	var wire bytes.Buffer
	var failure error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(pairs)
			failure = wireRoundTrip(&wire, &reqs[j], &resps[j])
			if failure != nil {
				b.FailNow()
			}
		}
	})
	if failure != nil {
		return Result{}, fmt.Errorf("ServeWireRoute d=%d k=%d: %w", d, k, failure)
	}
	return Result{
		Op: "ServeWireRoute", D: d, K: k,
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}, nil
}

// wireRoundTrip runs one ServeWireRoute iteration over wire.
func wireRoundTrip(wire *bytes.Buffer, req *serve.Request, resp *serve.Response) error {
	wire.Reset()
	if err := serve.WriteFrame(wire, req); err != nil {
		return err
	}
	body, err := serve.ReadFrame(wire, 0)
	if err != nil {
		return err
	}
	got, err := serve.ParseRequest(body)
	if err != nil {
		return err
	}
	if got.Src != req.Src {
		return fmt.Errorf("request decoded src %q, sent %q", got.Src, req.Src)
	}
	if err := serve.WriteFrame(wire, resp); err != nil {
		return err
	}
	if body, err = serve.ReadFrame(wire, 0); err != nil {
		return err
	}
	back, err := serve.ParseResponse(body)
	if err != nil {
		return err
	}
	if len(back.Path) != len(resp.Path) {
		return fmt.Errorf("response decoded %d hops, sent %d", len(back.Path), len(resp.Path))
	}
	return nil
}

// benchNetworkCells measures the three network engines at one (d,k)
// point. Each iteration is one whole seeded simulation run — a
// fixed-size batch for Contention, a fixed open-loop window for
// OpenLoop and Deflect — so ns/op compares end-to-end engine cost on
// the same traffic scale.
func benchNetworkCells(d, k int) ([]Result, error) {
	const (
		messages = 128
		rate     = 0.3
		rounds   = 40
		seed     = 17
	)
	ops := []struct {
		name string
		fn   func() error
	}{
		{"Contention", func() error {
			c, err := network.NewContention(network.ContentionConfig{D: d, K: k, Seed: seed})
			if err != nil {
				return err
			}
			if err := c.AddUniform(messages); err != nil {
				return err
			}
			_, err = c.Run()
			return err
		}},
		{"OpenLoop", func() error {
			_, err := network.RunOpenLoop(network.OpenLoopConfig{
				D: d, K: k, Rate: rate, Rounds: rounds, Seed: seed,
			})
			return err
		}},
		{"Deflect", func() error {
			_, err := deflect.RunLoad(deflect.LoadConfig{
				D: d, K: k, Policy: deflect.PolicyLayerAware{},
				Rate: rate, Rounds: rounds, Seed: seed,
			})
			return err
		}},
	}
	out := make([]Result, 0, len(ops))
	for _, op := range ops {
		fn := op.fn
		var failure error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					failure = err
					b.FailNow()
				}
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("%s d=%d k=%d: %w", op.name, d, k, failure)
		}
		out = append(out, Result{
			Op: op.name, D: d, K: k,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
	}
	return out, nil
}
