// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload for a given seed and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers, measured with
// no spans recorded; with -trace 1 a separate traced run replays the
// workload end to end and layer by layer and reports the per-layer
// numbers. README.md in this directory lists the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
// Usage, from the root of the repository:
//
//	bash e2ebench/run.sh --workload scalar-zipf-k64 --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options configure one run.
type options struct {
	workload string
	seed     int64
	// seconds sizes the timed window: it holds the fixed number of
	// passes that take about this long (see passCount).
	seconds float64
	trace   bool
	// setupOnly sets the workload up, prints setupReady and exits; a
	// run times its set-up in such child processes.
	setupOnly bool
	// spansDir receives the traced run's spans ("" writes none).
	spansDir string
	// tiny shrinks every pass and the warm-up to a handful of
	// operations (tests only).
	tiny bool
	// deadline bounds every client request of the run.
	deadline time.Time
}

// runLimit bounds one run's requests; the benchmark must exit within
// 180 seconds.
const runLimit = 170 * time.Second

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named workload of the benchmark.
type workload struct {
	// run executes the workload; info receives human-readable lines
	// printed before the result line.
	run func(opts options, info io.Writer) (result, error)
	// setUp does what a run does before its first timed op and returns
	// what tears it down.
	setUp func(opts options) (func(), error)
}

var workloads = map[string]workload{
	"scalar-zipf-k64":    {scalarZipf.run, scalarZipf.setUpOnly},
	"batch-uniform-k256": {batchUniform.run, batchUniform.setUpOnly},
	"sim-e18":            {runSim, setUpSim},
}

// setupReady starts the line a set-up child prints when its first
// timed op would be due; the line goes on with the CPU seconds the
// child has used.
const setupReady = "ready"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&opts.seconds, "seconds", 15, "about how long the timed window lasts: it holds a fixed number of passes sized to this")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	fs.StringVar(&opts.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to (empty: none)")
	fs.BoolVar(&opts.tiny, "tiny", false, "shrink every pass and the warm-up to a handful of operations (smoke tests)")
	fs.BoolVar(&opts.setupOnly, "setup-only", false, "set the workload up, print "+setupReady+" and exit (the set-up children of a run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[opts.workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have %s)\n", opts.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "e2ebench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	opts.trace = *traceFlag == 1
	opts.deadline = time.Now().Add(runLimit)
	if opts.setupOnly {
		done, err := w.setUp(opts)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintln(stdout, setupReady, cpuTime().Seconds())
		done()
		return 0
	}
	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%g trace=%d\n", opts.workload, opts.seed, opts.seconds, *traceFlag)
	res, err := w.run(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// coldSetup sets the workload up in setupRuns fresh processes of this
// binary, one after another, each with nothing warmed by an earlier
// set-up: process start, input generation and warm-up. It returns the
// median CPU time a process used until its first timed op was due, and
// the median wall time from its start to its report. The CPU time is
// the reported set-up time: on a shared machine the wall time also
// holds whatever the hypervisor stole meanwhile.
func coldSetup(opts options) (cpu, wall time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), opts.deadline)
	defer cancel()
	args := []string{"--workload", opts.workload, "--seed", strconv.FormatInt(opts.seed, 10), "--setup-only"}
	if opts.tiny {
		args = append(args, "--tiny")
	}
	var cpus, walls []float64
	for i := 0; i < setupRuns; i++ {
		var errOut bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = &errOut
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		tag, secs, _ := strings.Cut(strings.TrimSpace(line), " ")
		c, perr := strconv.ParseFloat(secs, 64)
		if werr != nil || rerr != nil || tag != setupReady || perr != nil {
			return 0, 0, fmt.Errorf("set-up child: %v %v, printed %q: %s", werr, rerr, line, errOut.String())
		}
		cpus, walls = append(cpus, c), append(walls, d.Seconds())
	}
	return fromSeconds(median(cpus)), fromSeconds(median(walls)), nil
}

func fromSeconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
