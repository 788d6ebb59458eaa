// Command dbsim drives the de Bruijn network simulator: it builds
// DN(d,k), optionally fails sites, runs a traffic workload under a
// wildcard policy, and reports delivery and load statistics.
//
//	dbsim -d 2 -k 8 -messages 10000
//	dbsim -d 2 -k 8 -policy least-loaded -workload hotspot
//	dbsim -d 2 -k 6 -fail 000111,010101 -adaptive
//	dbsim -d 2 -k 6 -engine deflect -rate 0.6 -deflect-policy layer-aware
//	dbsim -d 2 -k 8 -metrics             # Prometheus text dump after the run
//	dbsim -d 2 -k 8 -debug-addr :8080    # live /metrics + /debug/pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/deflect"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/word"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbsim", flag.ContinueOnError)
	d := fs.Int("d", 2, "alphabet size")
	k := fs.Int("k", 8, "word length (diameter)")
	uni := fs.Bool("unidirectional", false, "uni-directional network (Algorithm 1 routes)")
	policyName := fs.String("policy", "first", "wildcard policy: first | random | least-loaded")
	workloadName := fs.String("workload", "uniform", "workload: uniform | hotspot | bit-reversal")
	messages := fs.Int("messages", 10000, "number of messages")
	seed := fs.Int64("seed", 1, "random seed")
	failList := fs.String("fail", "", "comma-separated site addresses to fail")
	adaptive := fs.Bool("adaptive", false, "reroute around failed sites")
	engine := fs.String("engine", "sync", "sync (deterministic store-and-forward) | deflect (bufferless hot-potato)")
	rate := fs.Float64("rate", 0.3, "deflect engine: per-site per-round injection probability")
	rounds := fs.Int("rounds", 200, "deflect engine: injection window in rounds")
	deflectPolicy := fs.String("deflect-policy", "layer-aware", "deflect engine: random | min-increase | layer-aware")
	maxAge := fs.Int("max-age", 0, "deflect engine: livelock-guard age in rounds (0 = 64·k)")
	metrics := fs.Bool("metrics", false, "print the metrics registry (Prometheus text) after the run")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address during the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reg *obs.Registry
	if *metrics || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
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

	switch *engine {
	case "deflect":
		if err := runDeflect(out, *d, *k, *uni, *deflectPolicy, *rate, *rounds, *maxAge, *seed, reg); err != nil {
			return err
		}
		return dumpMetrics(out, reg, *metrics)
	case "sync":
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}

	var policy network.Policy
	switch *policyName {
	case "first":
		policy = network.PolicyFirst{}
	case "random":
		policy = network.PolicyRandom{}
	case "least-loaded":
		policy = network.PolicyLeastLoaded{}
	default:
		return fmt.Errorf("unknown policy %q", *policyName)
	}

	n, err := network.New(network.Config{
		D: *d, K: *k,
		Unidirectional: *uni,
		Policy:         policy,
		Seed:           *seed,
		Adaptive:       *adaptive,
		Obs:            reg,
	})
	if err != nil {
		return err
	}

	if *failList != "" {
		for _, addr := range strings.Split(*failList, ",") {
			w, err := word.Parse(*d, strings.TrimSpace(addr))
			if err != nil {
				return fmt.Errorf("parsing -fail %q: %w", addr, err)
			}
			if err := n.FailSite(w); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "failed sites: %d\n", n.FailedSites())
	}

	var wl network.Workload
	switch *workloadName {
	case "uniform":
		wl = network.Uniform{D: *d, K: *k}
	case "hotspot":
		target, err := word.Zeros(*d, *k)
		if err != nil {
			return err
		}
		wl = network.Hotspot{D: *d, K: *k, Target: target, Fraction: 0.3}
	case "bit-reversal":
		wl = network.BitReversal{D: *d, K: *k}
	default:
		return fmt.Errorf("unknown workload %q", *workloadName)
	}

	sum, err := network.RunWorkload(n, wl, *messages)
	if err != nil {
		return err
	}
	dir := "bi-directional"
	if *uni {
		dir = "uni-directional"
	}
	fmt.Fprintf(out, "DN(%d,%d) %s, %d sites, policy %s, workload %s\n",
		*d, *k, dir, n.NumSites(), policy.Name(), wl.Name())
	fmt.Fprintf(out, "messages:   %d\n", sum.Messages)
	fmt.Fprintf(out, "delivered:  %d\n", sum.Delivered)
	fmt.Fprintf(out, "dropped:    %d\n", sum.Dropped)
	fmt.Fprintf(out, "rerouted:   %d\n", sum.Rerouted)
	fmt.Fprintf(out, "mean hops:  %.4f (diameter %d)\n", sum.MeanHops, *k)
	fmt.Fprintf(out, "max hops:   %d\n", sum.MaxHops)
	fmt.Fprintf(out, "max link load:  %d\n", sum.Net.MaxLinkLoad)
	fmt.Fprintf(out, "mean link load: %.4f\n", sum.Net.MeanLinkLoad)
	fmt.Fprintf(out, "load gini:      %.4f\n", sum.Net.LoadGini)
	fmt.Fprintf(out, "max site load:  %d\n", sum.Net.MaxSiteLoad)
	return dumpMetrics(out, reg, *metrics)
}

// dumpMetrics prints the Prometheus exposition after the summary.
func dumpMetrics(out io.Writer, reg *obs.Registry, enabled bool) error {
	if !enabled || reg == nil {
		return nil
	}
	fmt.Fprintln(out, "\n# metrics")
	return reg.WritePrometheus(out)
}

// runDeflect drives the bufferless deflection engine through one
// open-loop offered-load run and prints its latency/deflection summary.
func runDeflect(out io.Writer, d, k int, uni bool, policyName string, rate float64, rounds, maxAge int, seed int64, reg *obs.Registry) error {
	policy := deflect.PolicyByName(policyName)
	if policy == nil {
		return fmt.Errorf("unknown deflect policy %q", policyName)
	}
	res, err := deflect.RunLoad(deflect.LoadConfig{
		D: d, K: k,
		Unidirectional: uni,
		Policy:         policy,
		Rate:           rate,
		Rounds:         rounds,
		MaxAge:         maxAge,
		Seed:           seed,
		Obs:            reg,
	})
	if err != nil {
		return err
	}
	sites, err := word.Count(d, k)
	if err != nil {
		return err
	}
	dir := "bi-directional"
	if uni {
		dir = "uni-directional"
	}
	fmt.Fprintf(out, "DN(%d,%d) %s bufferless deflection, %d sites, policy %s, rate %.3f\n",
		d, k, dir, sites, policy.Name(), rate)
	fmt.Fprintf(out, "rounds:       %d (+%d drain)\n", rounds, res.DrainRounds)
	fmt.Fprintf(out, "offered:      %d\n", res.Offered)
	fmt.Fprintf(out, "injected:     %d\n", res.Injected)
	fmt.Fprintf(out, "refused:      %d\n", res.Refused)
	fmt.Fprintf(out, "delivered:    %d\n", res.Delivered)
	fmt.Fprintf(out, "guard trips:  %d\n", res.GuardDropped)
	fmt.Fprintf(out, "mean latency: %.4f rounds (p99 %d, max %d)\n", res.MeanLatency, res.P99Latency, res.MaxLatency)
	fmt.Fprintf(out, "deflections:  %d (%.4f per hop, %.4f per message)\n",
		res.Deflections, res.DeflectionRate, res.MeanDeflections)
	fmt.Fprintf(out, "throughput:   %.4f delivered/round\n", res.Throughput)
	return nil
}
