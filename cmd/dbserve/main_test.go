package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func TestSelfcheckClosedLoop(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-selfcheck", "-k", "8", "-clients", "2", "-requests", "40", "-hotset", "16"}, &out)
	if err != nil {
		t.Fatalf("selfcheck: %v\n%s", err, out.String())
	}
	for _, want := range []string{"sent      80", "latency", "rate"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSelfcheckOpenLoop(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-selfcheck", "-k", "8", "-rate", "500", "-duration", "100ms"}, &out)
	if err != nil {
		t.Fatalf("selfcheck: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sent") {
		t.Fatalf("output missing counters:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, &strings.Builder{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestSelfcheckTracedCrossCheck(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-selfcheck", "-k", "8", "-clients", "2", "-requests", "64",
		"-trace-sample", "8", "-flight-size", "64"}, &out)
	if err != nil {
		t.Fatalf("traced selfcheck: %v\n%s", err, out.String())
	}
	for _, want := range []string{"final /metrics matches in-process counts", "sampled (1 in 8)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestProbeAgainstServer boots the real server path on an ephemeral
// port and drives it with the -probe smoke client — the same loop the
// CI workflow runs as a subprocess.
func TestProbeAgainstServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{TraceSample: 1, FlightSize: 64, Registry: obs.NewRegistry()})
	defer srv.Close()
	go srv.Serve(ln)

	var out strings.Builder
	if err := run([]string{"-probe", "-addr", ln.Addr().String()}, &out); err != nil {
		t.Fatalf("probe: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "probe complete: 9/9 ok") {
		t.Fatalf("probe output:\n%s", out.String())
	}
	if got := srv.Traces().Total(); got != 9 {
		t.Fatalf("server sampled %d probe traces, want 9", got)
	}
}

// TestProbeAgainstCluster is the in-process version of CI's
// cluster-smoke job: three TCP cluster nodes, the -probe client
// dialing one of them, a full-fidelity answer for every query, and at
// least one query riding the fabric. The nodes' explicit, spread
// identifiers make placement, and so the forwarded count,
// deterministic for the fixed probe pairs.
func TestProbeAgainstCluster(t *testing.T) {
	var nodes []*cluster.Node
	for _, id := range []string{"0000000000", "0101010101", "1100110011"} {
		var seeds []string
		if len(nodes) > 0 {
			seeds = []string{nodes[0].PeerAddr()}
		}
		n, err := cluster.New(cluster.Config{
			ID:          id,
			IDLen:       10,
			ClientAddr:  "127.0.0.1:0",
			PeerAddr:    "127.0.0.1:0",
			Transport:   serve.TCP{},
			Replication: 1,
			Seeds:       seeds,
			Serve:       serve.Config{Shards: 2, QueueDepth: 256, CacheSize: 256, DefaultDeadline: 5 * time.Second},
		})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for len(n.Membership().Members) != len(nodes) {
			if time.Now().After(deadline) {
				t.Fatalf("node %v sees %d members, want %d", n.ID(), len(n.Membership().Members), len(nodes))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var out strings.Builder
	if err := run([]string{"-probe", "-addr", nodes[0].ClientAddr()}, &out); err != nil {
		t.Fatalf("probe: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "probe complete: 9/9 ok") {
		t.Fatalf("probe output:\n%s", out.String())
	}
	// The dialed node owns about a third of the key space, so some of
	// the fixed probes must have been forwarded.
	var forwarded int64
	for _, n := range nodes {
		c := n.Counts()
		if !c.Conserved() {
			t.Errorf("node %v identity broken: %+v", n.ID(), c)
		}
		forwarded += c.Forwarded
	}
	if forwarded == 0 {
		t.Error("no probe query rode the fabric")
	}
}
