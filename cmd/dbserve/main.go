// Command dbserve runs the sharded route-query server over the
// length-prefixed JSON wire protocol, alone or as one node of a
// multi-node cluster (internal/cluster):
//
//	dbserve -addr :4600                       # serve until SIGINT/SIGTERM
//	dbserve -addr :4600 -debug-addr :4601     # plus /metrics and pprof
//	dbserve -trace-sample 64 -flight-size 256 # tracing + flight recorder
//	dbserve -selfcheck -rate 20000            # in-process load check, then exit
//	dbserve -probe -addr :4600                # client smoke: traced queries to a server or cluster node
//	dbserve -addr :4700 -peer :4710           # boot a standalone cluster node
//	dbserve -addr :4701 -peer :4711 -join :4710  # join a cluster through a member
//	dbserve -status 127.0.0.1:4710            # print a cluster node's status JSON
//
// The server owns one routing engine (and one reusable scratch state)
// per shard, shares an LRU result cache across shards, sheds instead
// of queueing unboundedly, and degrades route answers to distance-only,
// then layer-bound estimates as the admission queue fills.
//
// Link failures can be injected at startup with repeated -fail-link
// flags ("d:srcword:dstword"); route answers then carry arborescence
// detour paths around the failed links, labelled degrade="detour" on
// the wire. Only failed links select the detour rung, never queue
// fill.
//
// With -trace-sample N, one request in N records a full span trace
// (admission, queue wait, cache, kernel, response write) served on
// /debug/traces; with -flight-size, a flight recorder keeps the last
// events and freezes on the first anomaly (shed spike, degrade ladder
// engaging, window p99 past the deadline), served on /debug/flight.
//
// -selfcheck additionally scrapes its own /metrics mid-run and
// cross-checks the dn_serve_* counters against the in-process
// conservation totals; drift fires the conservation_mismatch flight
// trigger and fails the run.
//
// With -peer, the server is a cluster node: the same serving flags
// shape its embedded server, which answers any query on -addr and
// proxies misses hop-by-hop over the Koorde fabric toward the owner,
// so `dbserve -probe -addr` smoke-tests a cluster through any node.
// The control listener on -peer speaks the join/membership/status
// protocol; -status is its standalone client. On SIGINT/SIGTERM the
// node announces departure (a clean leave) before shutting down.
// Fault views are per process, so -peer refuses -fail-link, and
// -selfcheck, which drives a lone in-process server.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbserve:", err)
		os.Exit(1)
	}
}

// errPeerAlone rejects the flags that only a lone server can honour.
var errPeerAlone = errors.New("-peer runs a cluster node, which takes neither -selfcheck nor -fail-link")

// testStop, when non-nil, stops the serving loop in place of a
// signal; tests close it to exercise the full shutdown path.
var testStop chan struct{}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:4600", "TCP listen address")
	shards := fs.Int("shards", 0, "worker shards (0: GOMAXPROCS; a cluster node takes at least 2)")
	queue := fs.Int("queue", 1024, "admission queue depth (full queue sheds)")
	cacheSize := fs.Int("cache", 4096, "LRU result-cache capacity in answers (0 disables)")
	deadline := fs.Duration("deadline", 100*time.Millisecond, "default per-request deadline")
	writeTimeout := fs.Duration("write-timeout", 0, "per-frame response write deadline; a reader slower than this is evicted (0: 30s default, negative: disabled)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/traces, /debug/flight, pprof on this address")
	traceSample := fs.Int("trace-sample", 0, "record one request trace in every N (0 disables tracing)")
	traceSeed := fs.Uint64("trace-seed", 1, "seed of the deterministic trace sampler")
	traceBuffer := fs.Int("trace-buffer", 256, "sampled traces retained for /debug/traces")
	flightSize := fs.Int("flight-size", 0, "flight-recorder ring capacity in events (0 disables)")
	var failLinks failLinkFlags
	fs.Var(&failLinks, "fail-link", "fail the link d:srcword:dstword (repeatable); route answers detour around failed links")
	selfcheck := fs.Bool("selfcheck", false, "run an in-process load sweep instead of listening")
	probe := fs.Bool("probe", false, "connect to -addr as a client, send traced smoke queries, exit")
	d := fs.Int("d", 2, "selfcheck: alphabet size")
	k := fs.Int("k", 10, "selfcheck: diameter")
	rate := fs.Float64("rate", 0, "selfcheck: offered requests/second (0: closed loop)")
	clients := fs.Int("clients", 4, "selfcheck: concurrent connections")
	requests := fs.Int("requests", 256, "selfcheck: closed-loop requests per client")
	duration := fs.Duration("duration", time.Second, "selfcheck: open-loop run length")
	hotset := fs.Int("hotset", 0, "selfcheck: draw vertices from a pool of this size (0: uniform)")
	batch := fs.Int("batch", 0, "selfcheck: sub-queries per request (0: scalar requests)")
	seed := fs.Int64("seed", 1, "selfcheck: random seed")
	peer := fs.String("peer", "", "run a cluster node with its control listener (join/membership/status) on this address")
	join := fs.String("join", "", "cluster: comma-separated control addresses of existing members to join through")
	id := fs.String("id", "", "cluster: node identifier digits in DG(2, idlen) (empty: derived from -addr)")
	idLen := fs.Int("idlen", cluster.DefaultIDLen, "cluster: identifier length (all members must agree)")
	replication := fs.Int("replication", cluster.DefaultReplication, "cluster: replica-set size R; the owner plus R-1 ring successors hold each key")
	status := fs.String("status", "", "print the status JSON of the cluster node at this control address, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *probe:
		return runProbe(*addr, out)
	case *status != "":
		return runStatus(*status, out)
	case *peer != "" && (*selfcheck || len(failLinks) > 0):
		return errPeerAlone
	}

	reg := obs.NewRegistry()
	cfg := serve.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		DefaultDeadline: *deadline,
		WriteTimeout:    *writeTimeout,
		Registry:        reg,
		TraceSample:     *traceSample,
		TraceSeed:       *traceSeed,
		TraceBufferSize: *traceBuffer,
		FlightSize:      *flightSize,
	}
	if len(failLinks) > 0 {
		cfg.Faults = serve.NewFaultSet()
		for _, l := range failLinks {
			if err := cfg.Faults.FailLink(l[0], l[1]); err != nil {
				return err
			}
		}
	}

	var srv *serve.Server
	var node *cluster.Node
	if *peer != "" {
		var err error
		node, err = cluster.New(cluster.Config{
			ID:          *id,
			IDLen:       *idLen,
			ClientAddr:  *addr,
			PeerAddr:    *peer,
			Transport:   serve.TCP{},
			Replication: *replication,
			Seeds:       splitList(*join),
			Serve:       cfg,
		})
		if err != nil {
			return err
		}
		defer node.Close() // after Leave, a no-op
		srv = node.Server()
	} else {
		srv = serve.NewServer(cfg)
		defer srv.Close()
	}

	// The selfcheck cross-checks the wire /metrics against in-process
	// counters, so it gets an ephemeral debug server if none was asked
	// for.
	dbgAddr := *debugAddr
	if dbgAddr == "" && *selfcheck {
		dbgAddr = "127.0.0.1:0"
	}
	var scrapeURL string
	if dbgAddr != "" {
		ds, err := obs.ServeDebug(dbgAddr, obs.DebugOptions{
			Registry: reg, Traces: srv.Traces(), Flight: srv.Flight(),
		})
		if err != nil {
			return err
		}
		defer func() {
			if err := ds.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "debug server:", err)
			}
		}()
		scrapeURL = "http://" + ds.Addr() + "/metrics"
		if *debugAddr != "" {
			fmt.Fprintf(out, "debug server on http://%s (/metrics, /metrics.json, /debug/traces, /debug/flight, /debug/pprof/)\n", ds.Addr())
		}
	}

	if *selfcheck {
		return runSelfcheck(out, srv, scrapeURL, *traceSample, serve.LoadConfig{
			D: *d, K: *k,
			Clients:           *clients,
			RequestsPerClient: *requests,
			Rate:              *rate,
			Duration:          *duration,
			HotSet:            *hotset,
			BatchSize:         *batch,
			Seed:              *seed,
			StampTrace:        *traceSample > 0,
		})
	}

	serveErr := make(chan error, 1)
	if node != nil {
		fmt.Fprintf(out, "node %s serving on %s (control %s, %d member(s), R=%d)\n",
			node.ID(), node.ClientAddr(), node.PeerAddr(), len(node.Membership().Members), *replication)
	} else {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serving DG route queries on %s (%d-deep queue, cache %d)\n",
			ln.Addr(), *queue, *cacheSize)
		go func() { serveErr <- srv.Serve(ln) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-testStop:
	case err := <-serveErr:
		return err
	}
	if node != nil {
		fmt.Fprintln(out, "leaving cluster")
		return node.Leave()
	}
	fmt.Fprintln(out, "shutting down")
	return srv.Close()
}

// splitList parses a comma-separated address list, dropping blanks.
func splitList(s string) []string {
	var list []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			list = append(list, f)
		}
	}
	return list
}

// runStatus prints the status document of one cluster node, fetched
// over its control listener.
func runStatus(addr string, out io.Writer) error {
	st, err := cluster.RemoteStatus(serve.TCP{}, addr, 5*time.Second)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// runSelfcheck drives the in-process load sweep while scraping the
// server's own /metrics endpoint, then cross-checks the scraped
// dn_serve_* counters against the in-process conservation totals.
func runSelfcheck(out io.Writer, srv *serve.Server, scrapeURL string, sampleEvery int, cfg serve.LoadConfig) error {
	type loadOut struct {
		res serve.LoadResult
		err error
	}
	done := make(chan loadOut, 1)
	go func() {
		res, err := serve.RunLoad(srv, cfg)
		done <- loadOut{res, err}
	}()

	// Mid-run scrapes: each consecutive pair must be monotone, and
	// outcomes counted by scrape i must all have been admitted by
	// scrape i+1 (outcomes_i ≤ sent_{i+1} — the wire-visible half of
	// the conservation invariant while counters are still moving).
	var prev map[string]int64
	scrapes := 0
	var lr loadOut
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
scrapeLoop:
	for {
		select {
		case lr = <-done:
			break scrapeLoop
		case <-tick.C:
			cur, err := scrapeServeCounters(scrapeURL)
			if err != nil {
				return fmt.Errorf("mid-run scrape: %w", err)
			}
			scrapes++
			if prev != nil {
				if err := checkScrapePair(prev, cur); err != nil {
					srv.TriggerFlight(serve.TriggerConservation, err.Error(), 0)
					return fmt.Errorf("mid-run /metrics drift: %w", err)
				}
			}
			prev = cur
		}
	}
	if lr.err != nil {
		return lr.err
	}
	printLoadResult(out, lr.res)
	if !lr.res.Conserved() {
		return fmt.Errorf("conservation violated: sent %d != answered %d + degraded %d + shed %d",
			lr.res.Sent, lr.res.Answered, lr.res.Degraded, lr.res.Shed)
	}

	// Final scrape: the quiesced wire counters must match the
	// in-process Counts exactly, reason by reason.
	final, err := scrapeServeCounters(scrapeURL)
	if err != nil {
		return fmt.Errorf("final scrape: %w", err)
	}
	if err := checkCountsMatch(final, srv.Counts()); err != nil {
		srv.TriggerFlight(serve.TriggerConservation, err.Error(), 0)
		return fmt.Errorf("/metrics vs in-process counts: %w", err)
	}
	fmt.Fprintf(out, "metrics   %d mid-run scrapes monotone; final /metrics matches in-process counts\n", scrapes)
	if tb := srv.Traces(); tb != nil {
		fmt.Fprintf(out, "traces    %d sampled (1 in %d)\n", tb.Total(), sampleEvery)
	}
	return nil
}

// scrapeServeCounters fetches a Prometheus text page and returns every
// dn_serve_* sample (counters and gauges) keyed by its full name,
// labels included.
func scrapeServeCounters(url string) (map[string]int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	m := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dn_serve_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue // histogram sum lines etc. still parse; skip anything odd
		}
		m[line[:i]] = int64(v)
	}
	return m, sc.Err()
}

// family sums every sample of one labelled counter family.
func family(m map[string]int64, base string) int64 {
	var sum int64
	for name, v := range m {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += v
		}
	}
	return sum
}

// checkScrapePair verifies two successive mid-run scrapes are
// consistent: counters never step back, and outcomes never outrun
// admissions.
func checkScrapePair(prev, cur map[string]int64) error {
	for name, v := range prev {
		if strings.HasSuffix(strings.SplitN(name, "{", 2)[0], "_total") && cur[name] < v {
			return fmt.Errorf("%s went backwards: %d -> %d", name, v, cur[name])
		}
	}
	outcomes := prev["dn_serve_answered_total"] +
		family(prev, "dn_serve_degraded_total") +
		family(prev, "dn_serve_shed_total")
	if sent := cur["dn_serve_sent_total"]; outcomes > sent {
		return fmt.Errorf("outcomes %d exceed admitted %d", outcomes, sent)
	}
	return nil
}

// checkCountsMatch verifies a quiesced /metrics scrape agrees exactly
// with the server's in-process conservation snapshot.
func checkCountsMatch(m map[string]int64, c serve.Counts) error {
	checks := []struct {
		name string
		wire int64
		mem  int64
	}{
		{"dn_serve_sent_total", m["dn_serve_sent_total"], c.Sent},
		{"dn_serve_answered_total", m["dn_serve_answered_total"], c.Answered},
		{"dn_serve_degraded_total", family(m, "dn_serve_degraded_total"), c.Degraded},
		{"dn_serve_shed_total", family(m, "dn_serve_shed_total"), c.Shed},
	}
	for reason, n := range c.ShedByReason {
		checks = append(checks, struct {
			name string
			wire int64
			mem  int64
		}{obs.Label("dn_serve_shed_total", "reason", reason),
			m[obs.Label("dn_serve_shed_total", "reason", reason)], n})
	}
	for _, ch := range checks {
		if ch.wire != ch.mem {
			return fmt.Errorf("%s: wire %d != in-process %d", ch.name, ch.wire, ch.mem)
		}
	}
	return nil
}

// failLinkFlags collects repeated -fail-link values, each parsed as
// "d:srcword:dstword" into the link's two endpoint words.
type failLinkFlags [][2]word.Word

func (f *failLinkFlags) String() string { return fmt.Sprintf("%d link(s)", len(*f)) }

func (f *failLinkFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want d:srcword:dstword, got %q", s)
	}
	base, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("bad base in %q: %w", s, err)
	}
	u, err := word.Parse(base, parts[1])
	if err != nil {
		return fmt.Errorf("bad link endpoint in %q: %w", s, err)
	}
	v, err := word.Parse(base, parts[2])
	if err != nil {
		return fmt.Errorf("bad link endpoint in %q: %w", s, err)
	}
	*f = append(*f, [2]word.Word{u, v})
	return nil
}

// probePairs spread the probe's queries over the DG(2,10) key space,
// so that against a cluster node some land outside its replica set
// and must ride the fabric.
var probePairs = [][2]string{
	{"0110100101", "1010011010"},
	{"0000011111", "1111100000"},
	{"1001011001", "0110100110"},
	{"0101010101", "1010101010"},
	{"0011001100", "1100110011"},
	{"1110001110", "0001110001"},
	{"1011101000", "0010111010"},
	{"0100101101", "1101001011"},
}

// runProbe is the CI smoke client for a dbserve server or cluster
// node: it dials addr, issues one traced query per probe pair, cycling
// distance, route and next-hop, plus one batch, and requires a
// full-fidelity answer (status ok, no degrade) echoing its trace id
// for each.
func runProbe(addr string, out io.Writer) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var reqs []serve.Request
	for i, p := range probePairs {
		src, dst := word.MustParse(2, p[0]), word.MustParse(2, p[1])
		switch i % 3 {
		case 0:
			reqs = append(reqs, serve.DistanceRequest(src, dst, serve.Undirected))
		case 1:
			reqs = append(reqs, serve.RouteRequest(src, dst, serve.Undirected))
		default:
			reqs = append(reqs, serve.NextHopRequest(src, dst, serve.Undirected))
		}
	}
	src, dst := word.MustParse(2, probePairs[0][0]), word.MustParse(2, probePairs[0][1])
	reqs = append(reqs, serve.BatchRequest(
		serve.DistanceRequest(src, dst, serve.Undirected),
		serve.RouteRequest(dst, src, serve.Undirected)))
	for i, req := range reqs {
		req.TraceID = obs.TraceID(0xdb0 + i)
		resp, err := c.Do(ctx, req)
		if err != nil {
			return fmt.Errorf("probe %d (%s): %w", i, req.Kind, err)
		}
		if resp.Status != serve.StatusOK || resp.Degrade != "" {
			return fmt.Errorf("probe %d (%s): status %q (shed %q, degrade %q, error %q), want a full-fidelity answer",
				i, req.Kind, resp.Status, resp.ShedReason, resp.Degrade, resp.Error)
		}
		if resp.TraceID != req.TraceID {
			return fmt.Errorf("probe %d (%s): trace id %v not echoed (got %v)", i, req.Kind, req.TraceID, resp.TraceID)
		}
		fmt.Fprintf(out, "probe %-10s ok trace=%v\n", req.Kind, resp.TraceID)
	}
	fmt.Fprintf(out, "probe complete: %d/%d ok\n", len(reqs), len(reqs))
	return nil
}

func printLoadResult(out io.Writer, res serve.LoadResult) {
	fmt.Fprintf(out, "sent      %d\n", res.Sent)
	fmt.Fprintf(out, "answered  %d\n", res.Answered)
	fmt.Fprintf(out, "degraded  %d\n", res.Degraded)
	fmt.Fprintf(out, "shed      %d", res.Shed)
	if len(res.ShedByReason) > 0 {
		fmt.Fprintf(out, "  %v", res.ShedByReason)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "hits      %d\n", res.Hits)
	if res.Unlaunched > 0 || res.Errors > 0 {
		fmt.Fprintf(out, "client    errors %d, unlaunched %d\n", res.Errors, res.Unlaunched)
	}
	fmt.Fprintf(out, "latency   client p50 %v, p99 %v\n", res.P50, res.P99)
	if res.ServerP99 > 0 {
		fmt.Fprintf(out, "          server p50 %v, p99 %v (admission → answer)\n", res.ServerP50, res.ServerP99)
	}
	fmt.Fprintf(out, "rate      %.0f served/s over %v\n", res.Throughput, res.Elapsed.Round(time.Millisecond))
}
