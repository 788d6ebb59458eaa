package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spClientRTT spanName = iota
	spClientEncode
	spServerDecode
	spEngine
	spKernel
	spServerEncode
	spClientDecode
	spCoreDistance
	spCoreRoute
	spCoreNextHop
	spSimCell
	spDeflectStep
	spDeflectLayers
	spRouterDistance
	spOpenLoop
	spRouteLinear
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.rtt",
	"serve.client_encode",
	"serve.server_decode",
	"serve.engine",
	"core.kernel",
	"serve.server_encode",
	"serve.client_decode",
	"core.distance",
	"core.route",
	"core.nexthop",
	"sim.cell",
	"deflect.step",
	"deflect.layers",
	"core.router_distance",
	"network.openloop",
	"core.route_linear",
}

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span (-1 for none). A child is timed in
// its own call on the same inputs right after its parent, because the
// benchmark times layers only from outside, through public functions;
// a parent's self time is its duration minus its children's.
type span struct {
	req        uint64
	start, end int64 // ns since the tracer's epoch
	parent     int32
	name       spanName
}

// tracer keeps every span of a run in memory.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: monotonic ns since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its index.
func (t *tracer) add(req uint64, name spanName, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{req: req, start: start, end: end, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n          int64
	total, own int64 // summed duration and self time, ns
}

func (s layerStat) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

func (s layerStat) selfUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.own) / float64(s.n) / 1e3
}

// stats aggregates every span by name, with self time = duration minus
// the summed duration of the span's children.
func (t *tracer) stats() [numSpanNames]layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpanNames]layerStat
	for i, s := range t.spans {
		st := &out[s.name]
		st.n++
		st.total += s.end - s.start
		st.own += s.end - s.start - child[i]
	}
	return out
}

// printStats writes the count, mean and self-time mean of every span
// name that occurred.
func printStats(w io.Writer, st [numSpanNames]layerStat) {
	fmt.Fprintf(w, "# %-22s %9s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for name, s := range st {
		if s.n == 0 {
			continue
		}
		fmt.Fprintf(w, "# %-22s %9d %12.3f %12.3f\n", spanNames[name], s.n, s.meanUS(), s.selfUS())
	}
}

// writeSpans writes every span as one tab-separated line to
// dir/<workload>.spans.tsv.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tspan\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\n", s.req, spanNames[s.name], s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
