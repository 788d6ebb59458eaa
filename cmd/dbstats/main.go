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
//	dbstats -table latency    # E14: store-and-forward latency under contention
//	dbstats -table dht        # E15: Koorde DHT lookup cost
//	dbstats -table loadcurve  # E16: open-loop latency vs offered load
//	dbstats -table stretch    # E17: reroute stretch vs failure count
//	dbstats -table deflect    # E18: bufferless deflection load × policy
//	dbstats -table serve      # E21: route-query server load sweep
//	dbstats -table trace      # E22: flight-recorder postmortem of an overload
//	dbstats -table cluster    # E23: multi-node cluster over its own fabric
//	dbstats -table chaos      # E24: the chaos oracle's 4 × 5 grid plus its churn storm
//	dbstats -table kernels    # E25: tiered kernel engine speedup grid
//	dbstats -table faultroutes # E26: arborescence failover vs BFS recompute
//	dbstats -table all        # everything above
//
// -h lists every table name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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

// options holds the flag values the table builders read.
type options struct {
	table                     string
	maxK, d, k, samples, msgs int
	seed                      int64
	debugAddr                 string
}

// flags binds dbstats' command line to o.
func flags(o *options) *flag.FlagSet {
	var names []string
	for _, t := range tableList(options{}) {
		names = append(names, t.name)
	}
	fs := flag.NewFlagSet("dbstats", flag.ContinueOnError)
	fs.StringVar(&o.table, "table", "all", strings.Join(append(names, "all"), " | "))
	fs.IntVar(&o.maxK, "maxk", 10, "largest diameter for eq5/fig2 sweeps")
	fs.IntVar(&o.d, "d", 2, "alphabet size for -table dist")
	fs.IntVar(&o.k, "k", 5, "diameter for -table dist")
	fs.IntVar(&o.samples, "samples", 20000, "sample count for large fig2 points")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.msgs, "messages", 5000, "messages for -table policy")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address while tables generate")
	return fs
}

// table is one artefact dbstats can render.
type table struct {
	name, title string
	build       func() (*stats.Table, error)
}

// tableList is every table dbstats renders, in -table all order, with
// builders bound to o.
func tableList(o options) []table {
	return []table{
		{"census", "E1 — degree census and diameter (Figure 1 structure)", func() (*stats.Table, error) {
			return experiments.CensusTable(
				[]graph.Kind{graph.Directed, graph.Undirected},
				[][2]int{{2, 3}, {2, 5}, {2, 7}, {3, 3}, {3, 4}, {4, 3}, {5, 2}})
		}},
		{"eq5", "E3 — directed average distance: equation (5) vs exact", func() (*stats.Table, error) {
			return experiments.Eq5Table([]int{2, 3, 4, 5, 8}, o.maxK)
		}},
		{"fig2", "E4 — Figure 2: undirected average distance δ̄(d,k)", func() (*stats.Table, error) {
			return experiments.Figure2Table([]int{2, 3, 4, 5, 8}, o.maxK, o.samples, o.seed)
		}},
		{"crossover", "E6 — Algorithm 2 (O(k²)) vs Algorithm 4 (O(k)) crossover", func() (*stats.Table, error) {
			return experiments.CrossoverTable([]int{4, 8, 16, 32, 64, 128, 256, 512, 1024}, 200, o.seed)
		}},
		{"policy", "E7 — wildcard policy load balance (uniform traffic)", func() (*stats.Table, error) {
			return experiments.PolicyTable(2, 8, o.msgs, o.seed)
		}},
		{"fault", "E8 — fault tolerance (Pradhan–Reddy) on undirected DG", func() (*stats.Table, error) {
			return experiments.FaultTable([][2]int{{2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}})
		}},
		{"dist", fmt.Sprintf("distance distribution of DG(%d,%d)", o.d, o.k), func() (*stats.Table, error) {
			return experiments.DistributionTable(o.d, o.k)
		}},
		{"moore", "E10 — diameter near-optimality vs Moore bound (Imase–Itoh, §1)", func() (*stats.Table, error) {
			return experiments.OptimalityTable([][2]int{{2, 4}, {2, 8}, {2, 12}, {3, 4}, {3, 6}, {4, 3}, {4, 5}, {8, 3}})
		}},
		{"broadcast", "E11 — broadcast: flooding vs spanning tree", func() (*stats.Table, error) {
			return experiments.BroadcastTable([][2]int{{2, 4}, {2, 6}, {2, 8}, {3, 3}, {3, 4}, {4, 3}})
		}},
		{"diversity", "E12 — shortest-path diversity (room for wildcard balancing)", func() (*stats.Table, error) {
			return experiments.DiversityTable([][2]int{{2, 3}, {2, 4}, {2, 5}, {2, 6}, {3, 3}, {3, 4}})
		}},
		{"latency", "E14 — store-and-forward latency under link contention", func() (*stats.Table, error) {
			return experiments.LatencyTable(2, 8, []int{250, 1000, 4000}, o.seed)
		}},
		{"dht", "E15 — Koorde DHT: lookup cost on sparse de Bruijn rings", func() (*stats.Table, error) {
			return experiments.DHTTable(16, []int{8, 32, 128, 512, 2048}, 400, o.seed)
		}},
		{"loadcurve", "E16 — open-loop latency vs offered load (saturation curve)", func() (*stats.Table, error) {
			return experiments.LoadCurveTable(2, 8, []float64{0.02, 0.05, 0.10, 0.20, 0.35, 0.50}, 200, o.seed)
		}},
		{"stretch", "E17 — reroute stretch vs failure count", func() (*stats.Table, error) {
			return experiments.StretchTable(2, 8, []int{0, 1, 2, 4, 8, 16}, 2000, o.seed)
		}},
		{"deflect", "E18 — bufferless deflection: load × policy vs store-and-forward", func() (*stats.Table, error) {
			return experiments.DeflectTable(2, 6, []float64{0.05, 0.15, 0.30, 0.60, 0.90}, 300, o.seed)
		}},
		{"serve", "E21 — route-query server: offered load vs degrade/shed/latency", func() (*stats.Table, error) {
			// Rates are batch requests/second (64 sub-queries each); the
			// single-shard E21 server saturates near 1.5k req/s, so the
			// top two points are genuine 2.5× and 10× overload.
			return experiments.ServeLoadTable(experiments.ServeLoadConfig{Seed: o.seed},
				[]float64{250, 1000, 4000, 16000})
		}},
		{"trace", "E22 — flight recorder: frozen postmortem of an overload storm", func() (*stats.Table, error) {
			// A closed-loop storm with more requests in flight than
			// E21's server can hold, tracing and the flight recorder
			// armed; the table is the frozen postmortem.
			return experiments.FlightTable(experiments.ServeLoadConfig{Seed: o.seed})
		}},
		{"cluster", "E23 — multi-node cluster: load partitioned over its own de Bruijn fabric", func() (*stats.Table, error) {
			// A seeded closed-loop replay against a 4-node in-memory
			// cluster: per-node conservation counters, fabric hop means,
			// and latency quantiles.
			return experiments.ClusterTable(experiments.ClusterRunConfig{Seed: o.seed})
		}},
		{"chaos", "E24 — adversarial serving: workload shapes × fault schedules, conservation everywhere", func() (*stats.Table, error) {
			// The chaos oracle's 4 × 5 grid of workload shapes × fault
			// schedules plus its churn-storm cell: the conservation
			// ledger must balance in every cell.
			return experiments.ChaosTable(experiments.ChaosRunConfig{Seed: o.seed})
		}},
		{"kernels", "E25 — tiered routing kernels: Algorithm 4 vs selected tier", func() (*stats.Table, error) {
			// The tier ladder across graph scales: table tier on small
			// graphs, packed tier within 1024 plane bits on every
			// alphabet, scratch past them.
			return experiments.KernelsTable([][2]int{
				{2, 6}, {2, 8}, {3, 4}, {2, 16}, {2, 64}, {4, 32}, {2, 512}, {5, 16}, {8, 100}, {36, 40},
			}, 0, o.seed)
		}},
		{"faultroutes", "E26 — fault routing: arborescence failover vs BFS recompute under arc failures", func() (*stats.Table, error) {
			// Arborescence failover vs offline recompute: delivery must
			// stay 1.0 for every failure count below the tree count, and
			// the meanStretch − bfsStretch gap prices the O(1) failover.
			return experiments.FaultRoutesTable([][2]int{{2, 4}, {2, 6}, {3, 3}, {4, 2}}, 4, 120, o.seed)
		}},
	}
}

func run(args []string, out io.Writer) error {
	var o options
	if err := flags(&o).Parse(args); err != nil {
		return err
	}

	if o.debugAddr != "" {
		reg := obs.NewRegistry()
		fault.SetObserver(reg)
		defer fault.SetObserver(nil)
		srv, err := obs.ServeDebug(o.debugAddr, obs.DebugOptions{Registry: reg})
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

	found := false
	for _, t := range tableList(o) {
		if o.table != "all" && o.table != t.name {
			continue
		}
		found = true
		tab, err := t.build()
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		fmt.Fprintf(out, "## %s\n\n%s\n", t.title, tab)
	}
	if !found {
		return fmt.Errorf("unknown table %q", o.table)
	}
	return nil
}
