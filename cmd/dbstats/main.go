// Command dbstats regenerates the paper's quantitative artefacts:
//
//	dbstats -table eq5        # E3: equation (5) vs exact directed mean
//	dbstats -table fig2       # E4: Figure 2, undirected average distance
//	dbstats -table census     # E1: degree census + diameter per graph
//	dbstats -table crossover  # E6: Algorithm 2 vs Algorithm 4 timing
//	dbstats -table policy     # E7: wildcard policy load balance
//	dbstats -table fault      # E8: fault tolerance sweep
//	dbstats -table dist       # distance distributions of one DG(d,k)
//	dbstats -table moore      # E10: diameter vs Moore bound (§1 claim)
//	dbstats -table broadcast  # E11: flood vs tree dissemination
//	dbstats -table diversity  # E12: shortest-path multiplicity
//	dbstats -table deflect    # E18: bufferless deflection load × policy
//	dbstats -table serve      # E21: route-query server load sweep
//	dbstats -table trace      # E22: flight-recorder postmortem of an overload
//	dbstats -table cluster    # E23: multi-node cluster over its own fabric
//	dbstats -table chaos      # E24: adversarial load through the chaos transport
//	dbstats -table kernels    # E25: tiered kernel engine speedup grid
//	dbstats -table faultroutes # E26: arborescence failover vs BFS recompute
//	dbstats -table all        # everything above
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbstats:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbstats", flag.ContinueOnError)
	table := fs.String("table", "all", "eq5 | fig2 | census | crossover | policy | fault | dist | all")
	maxK := fs.Int("maxk", 10, "largest diameter for eq5/fig2 sweeps")
	d := fs.Int("d", 2, "alphabet size for -table dist")
	k := fs.Int("k", 5, "diameter for -table dist")
	samples := fs.Int("samples", 20000, "sample count for large fig2 points")
	seed := fs.Int64("seed", 1, "random seed")
	messages := fs.Int("messages", 5000, "messages for -table policy")
	debugAddr := fs.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while tables generate")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		fault.SetObserver(reg)
		defer fault.SetObserver(nil)
		srv, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer func() {
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "debug server:", err)
			}
		}()
		fmt.Fprintf(out, "debug server on http://%s (/metrics, /metrics.json, /debug/pprof/)\n", srv.Addr())
	}

	printers := map[string]func() (*stats.Table, error){
		"eq5": func() (*stats.Table, error) {
			return experiments.Eq5Table([]int{2, 3, 4, 5, 8}, *maxK)
		},
		"fig2": func() (*stats.Table, error) {
			return experiments.Figure2Table([]int{2, 3, 4, 5, 8}, *maxK, *samples, *seed)
		},
		"census": func() (*stats.Table, error) {
			return experiments.CensusTable(
				[]graph.Kind{graph.Directed, graph.Undirected},
				[][2]int{{2, 3}, {2, 5}, {2, 7}, {3, 3}, {3, 4}, {4, 3}, {5, 2}})
		},
		"crossover": func() (*stats.Table, error) {
			return experiments.CrossoverTable([]int{4, 8, 16, 32, 64, 128, 256, 512, 1024}, 200, *seed)
		},
		"policy": func() (*stats.Table, error) {
			return experiments.PolicyTable(2, 8, *messages, *seed)
		},
		"fault": func() (*stats.Table, error) {
			return experiments.FaultTable([][2]int{{2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}})
		},
		"dist": func() (*stats.Table, error) {
			return experiments.DistributionTable(*d, *k)
		},
		"moore": func() (*stats.Table, error) {
			return experiments.OptimalityTable([][2]int{{2, 4}, {2, 8}, {2, 12}, {3, 4}, {3, 6}, {4, 3}, {4, 5}, {8, 3}})
		},
		"broadcast": func() (*stats.Table, error) {
			return experiments.BroadcastTable([][2]int{{2, 4}, {2, 6}, {2, 8}, {3, 3}, {3, 4}, {4, 3}})
		},
		"diversity": func() (*stats.Table, error) {
			return experiments.DiversityTable([][2]int{{2, 3}, {2, 4}, {2, 5}, {2, 6}, {3, 3}, {3, 4}})
		},
		"latency": func() (*stats.Table, error) {
			return experiments.LatencyTable(2, 8, []int{250, 1000, 4000}, *seed)
		},
		"dht": func() (*stats.Table, error) {
			return experiments.DHTTable(16, []int{8, 32, 128, 512, 2048}, 400, *seed)
		},
		"loadcurve": func() (*stats.Table, error) {
			return experiments.LoadCurveTable(2, 8, []float64{0.02, 0.05, 0.10, 0.20, 0.35, 0.50}, 200, *seed)
		},
		"stretch": func() (*stats.Table, error) {
			return experiments.StretchTable(2, 8, []int{0, 1, 2, 4, 8, 16}, 2000, *seed)
		},
		"deflect": func() (*stats.Table, error) {
			return experiments.DeflectTable(2, 6, []float64{0.05, 0.15, 0.30, 0.60, 0.90}, 300, *seed)
		},
		"serve": func() (*stats.Table, error) {
			// Rates are batch requests/second (64 sub-queries each); the
			// single-shard E21 server saturates near 1.5k req/s, so the
			// top two points are genuine 2.5× and 10× overload.
			return experiments.ServeLoadTable(experiments.ServeLoadConfig{Seed: *seed},
				[]float64{250, 1000, 4000, 16000})
		},
		"trace": func() (*stats.Table, error) {
			// Replay E21's 10× overload point with tracing and the
			// flight recorder armed; the table is the frozen postmortem.
			return experiments.FlightTable(experiments.ServeLoadConfig{Seed: *seed}, 16000)
		},
		"cluster": func() (*stats.Table, error) {
			// A seeded closed-loop replay against a 4-node in-memory
			// cluster: per-node conservation counters, fabric hop means,
			// and latency quantiles.
			return experiments.ClusterTable(experiments.ClusterRunConfig{Seed: *seed})
		},
		"chaos": func() (*stats.Table, error) {
			// Workload shapes × fault schedules through the chaos
			// transport, plus a churn-storm row: the conservation ledger
			// must balance in every cell.
			return experiments.ChaosTable(experiments.ChaosRunConfig{Seed: *seed})
		},
		"faultroutes": func() (*stats.Table, error) {
			// Arborescence failover vs offline recompute: delivery must
			// stay 1.0 for every failure count below the tree count, and
			// the meanStretch − bfsStretch gap prices the O(1) failover.
			return experiments.FaultRoutesTable([][2]int{{2, 4}, {2, 6}, {3, 3}, {4, 2}}, 4, 120, *seed)
		},
		"kernels": func() (*stats.Table, error) {
			// The tier ladder across graph scales: table tier on small
			// graphs, packed tier through k=512 at d=2, scratch where
			// the alphabet doesn't pack.
			return experiments.KernelsTable([][2]int{
				{2, 6}, {2, 8}, {3, 4}, {2, 16}, {2, 64}, {4, 32}, {2, 512}, {5, 16},
			}, 0, *seed)
		},
	}
	titles := map[string]string{
		"eq5":         "E3 — directed average distance: equation (5) vs exact",
		"fig2":        "E4 — Figure 2: undirected average distance δ̄(d,k)",
		"census":      "E1 — degree census and diameter (Figure 1 structure)",
		"crossover":   "E6 — Algorithm 2 (O(k²)) vs Algorithm 4 (O(k)) crossover",
		"policy":      "E7 — wildcard policy load balance (uniform traffic)",
		"fault":       "E8 — fault tolerance (Pradhan–Reddy) on undirected DG",
		"dist":        fmt.Sprintf("distance distribution of DG(%d,%d)", *d, *k),
		"moore":       "E10 — diameter near-optimality vs Moore bound (Imase–Itoh, §1)",
		"broadcast":   "E11 — broadcast: flooding vs spanning tree",
		"diversity":   "E12 — shortest-path diversity (room for wildcard balancing)",
		"latency":     "E14 — store-and-forward latency under link contention",
		"dht":         "E15 — Koorde DHT: lookup cost on sparse de Bruijn rings",
		"loadcurve":   "E16 — open-loop latency vs offered load (saturation curve)",
		"stretch":     "E17 — reroute stretch vs failure count",
		"deflect":     "E18 — bufferless deflection: load × policy vs store-and-forward",
		"serve":       "E21 — route-query server: offered load vs degrade/shed/latency",
		"trace":       "E22 — flight recorder: frozen postmortem of an E21 overload run",
		"cluster":     "E23 — multi-node cluster: load partitioned over its own de Bruijn fabric",
		"chaos":       "E24 — adversarial serving: workload shapes × fault schedules, conservation everywhere",
		"kernels":     "E25 — tiered routing kernels: scratch vs selected tier vs batch frame",
		"faultroutes": "E26 — fault routing: arborescence failover vs BFS recompute under arc failures",
	}
	order := []string{"census", "eq5", "fig2", "crossover", "policy", "fault", "dist", "moore", "broadcast", "diversity", "latency", "dht", "loadcurve", "stretch", "deflect", "serve", "trace", "cluster", "chaos", "kernels", "faultroutes"}

	emit := func(name string) error {
		t, err := printers[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "## %s\n\n%s\n", titles[name], t)
		return nil
	}
	if *table == "all" {
		for _, name := range order {
			if err := emit(name); err != nil {
				return err
			}
		}
		return nil
	}
	if printers[*table] == nil {
		return fmt.Errorf("unknown table %q", *table)
	}
	return emit(*table)
}
