// Command dbcluster runs one node of the multi-node route-query
// cluster (internal/cluster) over TCP:
//
//	dbcluster -addr :4700 -peer :4710                  # boot a standalone node
//	dbcluster -addr :4701 -peer :4711 -seed :4710      # join through a member
//	dbcluster -replication 1                           # placement knob
//	dbcluster -debug-addr :4720                        # plus /metrics and pprof
//	dbcluster -status 127.0.0.1:4710                   # print a node's status JSON
//
// A node serves the ordinary dbserve wire protocol on -addr: any
// member answers any query, proxying misses hop-by-hop over the
// Koorde fabric toward the owner, so `dbserve -probe -addr` smoke-tests
// a cluster through any node. The control listener on
// -peer speaks the join/membership/status protocol; -status is its
// standalone client. On SIGINT/SIGTERM the node announces departure
// (a clean leave) before shutting down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbcluster:", err)
		os.Exit(1)
	}
}

// testStop, when non-nil, stops the serving loop in place of a
// signal; tests close it to exercise the full boot/leave path.
var testStop chan struct{}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbcluster", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:4700", "query listener address (dbserve wire protocol)")
	peer := fs.String("peer", "127.0.0.1:4710", "control listener address (join/membership/status)")
	seeds := fs.String("seed", "", "comma-separated control addresses of existing members to join through")
	id := fs.String("id", "", "node identifier digits in DG(idbase, idlen) (empty: derived from -addr)")
	idBase := fs.Int("idbase", cluster.DefaultIDBase, "identifier alphabet size (all members must agree)")
	idLen := fs.Int("idlen", cluster.DefaultIDLen, "identifier length (all members must agree)")
	replication := fs.Int("replication", cluster.DefaultReplication, "replica-set size R: owner plus R-1 ring successors hold each key")
	shards := fs.Int("shards", 0, "worker shards per node (0: GOMAXPROCS)")
	queue := fs.Int("queue", 1024, "admission queue depth (full queue sheds)")
	cacheSize := fs.Int("cache", 4096, "LRU result-cache capacity in answers (0 disables)")
	deadline := fs.Duration("deadline", 100*time.Millisecond, "default per-request deadline")
	writeTimeout := fs.Duration("write-timeout", 0, "per-frame response write deadline; a reader slower than this is evicted (0: 30s default, negative: disabled)")
	peerIOTimeout := fs.Duration("peer-io-timeout", 0, "per-frame deadline on peer control and forward connections (0: 10s default, negative: disabled)")
	gossipInterval := fs.Duration("gossip-interval", 0, "anti-entropy membership push-pull pace (0: 100ms default, negative: disabled)")
	traceSample := fs.Int("trace-sample", 0, "record one request trace in every N (0 disables tracing)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/traces, pprof on this address")
	status := fs.String("status", "", "print the status JSON of the node at this control address, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *status != "" {
		return runStatus(*status, out)
	}

	reg := obs.NewRegistry()
	serveCfg := serve.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		DefaultDeadline: *deadline,
		WriteTimeout:    *writeTimeout,
		TraceSample:     *traceSample,
		Registry:        reg,
	}
	var seedList []string
	for _, s := range strings.Split(*seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seedList = append(seedList, s)
		}
	}
	n, err := cluster.New(cluster.Config{
		ID:             *id,
		IDBase:         *idBase,
		IDLen:          *idLen,
		ClientAddr:     *addr,
		PeerAddr:       *peer,
		Transport:      serve.TCP{},
		Replication:    *replication,
		Seeds:          seedList,
		Serve:          serveCfg,
		PeerIOTimeout:  *peerIOTimeout,
		GossipInterval: *gossipInterval,
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, obs.DebugOptions{
			Registry: reg, Traces: n.Server().Traces(),
		})
		if err != nil {
			n.Close()
			return err
		}
		defer ds.Close()
		fmt.Fprintf(out, "debug server on http://%s (/metrics, /metrics.json, /debug/pprof/)\n", ds.Addr())
	}

	mem := n.Membership()
	fmt.Fprintf(out, "node %s serving on %s (control %s, %d member(s), R=%d)\n",
		n.ID(), n.ClientAddr(), n.PeerAddr(), len(mem.Members), *replication)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-testStop:
	}
	fmt.Fprintln(out, "leaving cluster")
	return n.Leave()
}

// runStatus prints the status document of one node, fetched over its
// control listener.
func runStatus(addr string, out io.Writer) error {
	st, err := cluster.RemoteStatus(serve.TCP{}, addr, 5*time.Second)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}
