// Command dbcheck runs the differential-verification harness
// (internal/check) and writes machine-readable JSON verdicts:
//
//	dbcheck -d 2 -k 5                    # per-graph oracles on DG(2,5)
//	dbcheck -d 2 -k 5 -mode routes       # just the route oracle
//	dbcheck -d 2 -k 5 -mode kernels      # just the kernel-tier oracle
//	dbcheck -d 2 -k 5 -mode faultroutes  # the fault-routing oracle
//	dbcheck -mode cluster                # the cluster conservation oracle
//	dbcheck -mode chaos                  # the adversarial serving oracle
//	dbcheck -mode all                    # sweep every DG(d,k) ≤ 4096 vertices
//	dbcheck -mode all -max-vertices 256  # a faster sweep
//
// The cluster and chaos oracles are graph-independent (they exercise
// the serving fabric, not a particular DG(d,k)), so -mode all runs
// each once before the per-graph sweep and -mode cluster / -mode
// chaos run them alone. The chaos oracle drives one 4 × 5 grid —
// workload shapes (uniform, Zipf+hotspot, flash crowd, batch mix)
// through fault schedules (clean control, latency+jitter,
// drop+corrupt, sever-mid-frame, slow reader) — then a chaotic
// cluster fabric and a churn storm; -chaos-requests sizes each cell
// (0 for the default, otherwise at least 4: one share per load
// client).
//
// With no -d/-k, dbcheck sweeps every de Bruijn graph DG(d,k) with
// d ∈ [2, 36], k ≥ 1 and at most -max-vertices vertices — the CI gate
// runs this with the default 4096 bound. The exit status is nonzero
// iff any oracle reported a finding, so the command doubles as a
// scriptable regression gate; the JSON document on stdout carries the
// per-graph, per-mode reports either way.
//
// Oracle scans shard across -workers goroutines (default GOMAXPROCS)
// with a deterministic merge: one sharded scan serves every -workers
// value, so the verdict — findings included — is a function of the
// graph and the options alone, and -workers sets only concurrency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/word"
)

// Verdict is the top-level JSON document.
type Verdict struct {
	Schema string `json:"schema"`
	// OK is true iff every report is clean.
	OK bool `json:"ok"`
	// Graphs and Findings summarize the sweep.
	Graphs   int `json:"graphs"`
	Findings int `json:"findings"`
	// ElapsedMS is the wall-clock cost of the whole run.
	ElapsedMS int64          `json:"elapsed_ms"`
	Reports   []check.Report `json:"reports"`
}

// Schema identifies the verdict layout for consumers.
const Schema = "dbcheck/v1"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbcheck", flag.ContinueOnError)
	d := fs.Int("d", 0, "alphabet size (0 with -k 0: sweep all graphs under -max-vertices)")
	k := fs.Int("k", 0, "word length")
	mode := fs.String("mode", "all", "oracle selection: routes | invariants | kernels | faultroutes | cluster | chaos | all")
	maxVertices := fs.Int("max-vertices", 4096, "sweep bound on d^k when -d/-k are not given")
	seed := fs.Int64("seed", 1, "seed for sampling, workloads and fault plans")
	samplePairs := fs.Int("sample-pairs", 4096, "route-oracle pairs sampled per graph above -sample-above vertices")
	sampleAbove := fs.Int("sample-above", 4096, "route-oracle vertex count above which pairs are sampled")
	messages := fs.Int("messages", 0, "messages per engine scenario (0 = auto)")
	maxFindings := fs.Int("max-findings", 32, "findings kept per report before truncating the scan")
	chaosRequests := fs.Int("chaos-requests", 0, "requests per chaos-oracle grid cell (0 = default)")
	workers := fs.Int("workers", check.DefaultWorkers(), "worker goroutines per oracle scan (concurrency only; the verdict does not depend on it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*d == 0) != (*k == 0) {
		return fmt.Errorf("give both -d and -k, or neither (sweep)")
	}
	if *chaosRequests != 0 && *chaosRequests < check.MinChaosRequests {
		return fmt.Errorf("-chaos-requests %d: give 0 (default) or at least %d", *chaosRequests, check.MinChaosRequests)
	}
	switch *mode {
	case "routes", "invariants", "kernels", "faultroutes", "cluster", "chaos", "all":
	default:
		return fmt.Errorf("unknown -mode %q (routes | invariants | kernels | faultroutes | cluster | chaos | all)", *mode)
	}

	var graphs [][2]int
	if *mode == "cluster" || *mode == "chaos" {
		// Serving behavior does not vary with the query graph: these
		// oracles run once, not per (d,k).
	} else if *d != 0 {
		graphs = append(graphs, [2]int{*d, *k})
	} else {
		graphs = sweepGraphs(*maxVertices)
	}

	start := time.Now()
	v := Verdict{Schema: Schema, OK: true, Graphs: len(graphs)}
	if *mode == "cluster" || *mode == "all" {
		r, err := check.Cluster(check.ClusterOptions{Seed: *seed, MaxFindings: *maxFindings})
		if err != nil {
			return err
		}
		if !r.OK() {
			v.OK = false
		}
		v.Findings += len(r.Findings)
		v.Reports = append(v.Reports, r)
	}
	if *mode == "chaos" || *mode == "all" {
		r, err := check.Chaos(check.ChaosOptions{Seed: *seed, Requests: *chaosRequests, MaxFindings: *maxFindings})
		if err != nil {
			return err
		}
		if !r.OK() {
			v.OK = false
		}
		v.Findings += len(r.Findings)
		v.Reports = append(v.Reports, r)
	}
	for _, g := range graphs {
		reps, err := runGraph(g[0], g[1], *mode, check.RoutesOptions{
			Seed:        *seed,
			SampleAbove: *sampleAbove,
			SamplePairs: *samplePairs,
			MaxFindings: *maxFindings,
			Workers:     *workers,
		}, check.InvariantsOptions{
			Seed:        *seed,
			Messages:    *messages,
			MaxFindings: *maxFindings,
			Workers:     *workers,
		}, check.KernelsOptions{
			Seed:        *seed,
			Pairs:       *samplePairs,
			MaxFindings: *maxFindings,
		}, check.FaultRoutesOptions{
			Seed:        *seed,
			MaxFindings: *maxFindings,
		})
		if err != nil {
			return err
		}
		for _, r := range reps {
			if !r.OK() {
				v.OK = false
			}
			v.Findings += len(r.Findings)
			v.Reports = append(v.Reports, r)
		}
	}
	v.ElapsedMS = time.Since(start).Milliseconds()

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if !v.OK {
		return fmt.Errorf("%d finding(s) across %d graph(s)", v.Findings, v.Graphs)
	}
	return nil
}

// runGraph runs the selected oracles on one DG(d,k).
func runGraph(d, k int, mode string, ro check.RoutesOptions, vo check.InvariantsOptions, ko check.KernelsOptions, fo check.FaultRoutesOptions) ([]check.Report, error) {
	var reps []check.Report
	if mode == "routes" || mode == "all" {
		r, err := check.Routes(d, k, ro)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	if mode == "invariants" || mode == "all" {
		r, err := check.Invariants(d, k, vo)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	if mode == "kernels" || mode == "all" {
		r, err := check.Kernels(d, k, ko)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	if mode == "faultroutes" || mode == "all" {
		r, err := check.FaultRoutes(d, k, fo)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// sweepGraphs enumerates every DG(d,k), d ∈ [2, MaxBase], k ≥ 1, with
// at most maxVertices vertices, smallest first.
func sweepGraphs(maxVertices int) [][2]int {
	var out [][2]int
	for d := 2; d <= word.MaxBase; d++ {
		for k := 1; ; k++ {
			n, err := word.Count(d, k)
			if err != nil || n > maxVertices {
				break
			}
			out = append(out, [2]int{d, k})
		}
	}
	return out
}
