package main

import (
	"encoding/json"
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync"
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

// TestPeerBadFlag checks that the cluster modes reject an unknown flag
// as such: a node does not start and -status does not dial the peer.
func TestPeerBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-peer", "127.0.0.1:0", "-definitely-not-a-flag"},
		{"-status", "127.0.0.1:1", "-definitely-not-a-flag"},
	} {
		err := run(args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err %v, want an unknown-flag error", args, err)
		}
	}
}

// TestRemovedClusterKnobs pins the cluster settings that are fixed
// defaults, not flags: the identifier base (2), the peer I/O timeout
// and the gossip interval.
func TestRemovedClusterKnobs(t *testing.T) {
	for _, args := range [][]string{
		{"-peer", "127.0.0.1:0", "-idbase", "3"},
		{"-peer", "127.0.0.1:0", "-peer-io-timeout", "2s"},
		{"-peer", "127.0.0.1:0", "-gossip-interval", "1s"},
	} {
		err := run(args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err %v, want an unknown-flag error", args, err)
		}
	}
}

// TestPeerRejectsLoneServerFlags pins the usage errors of a cluster
// node: the selfcheck drives a lone in-process server, and a fault
// view is not shared across nodes, so neither combines with -peer.
func TestPeerRejectsLoneServerFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-peer", "127.0.0.1:0", "-selfcheck"},
		{"-peer", "127.0.0.1:0", "-fail-link", "2:0110:1101"},
	} {
		if err := run(args, &strings.Builder{}); err != errPeerAlone {
			t.Errorf("%v: err %v, want %v", args, err, errPeerAlone)
		}
	}
}

func TestStatusDeadPeer(t *testing.T) {
	if err := run([]string{"-status", "127.0.0.1:1"}, &strings.Builder{}); err == nil {
		t.Fatal("status against a dead address succeeded")
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
	// The writer publishes a trace after its frame is flushed, so the
	// last one can land just after the probe has read its answer.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Traces().Total() < 9 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Traces().Total(); got != 9 {
		t.Fatalf("server sampled %d probe traces, want 9", got)
	}
}

// syncBuffer lets the test read run()'s output while the node is
// still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingLine = regexp.MustCompile(`serving on ([^ ]+) \(control ([^,]+),`)

// startNode boots run()'s cluster-node path on ephemeral ports and
// returns the bound control address plus a stop function that
// triggers the clean-leave path and returns run's error.
func startNode(t *testing.T, args ...string) (peerAddr string, out *syncBuffer, stop func() error) {
	t.Helper()
	testStop = make(chan struct{})
	out = &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(append([]string{"-addr", "127.0.0.1:0", "-peer", "127.0.0.1:0"}, args...), out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := servingLine.FindStringSubmatch(out.String()); m != nil {
			peerAddr = m[2]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("run exited before serving: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("node did not come up:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return peerAddr, out, func() error {
		close(testStop)
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("run did not exit after stop")
		}
	}
}

// joinNode boots an in-process TCP node on DG(2,10), joined through
// seed, or standalone when seed is empty.
func joinNode(t *testing.T, id, seed string) *cluster.Node {
	t.Helper()
	cfg := cluster.Config{
		ID:          id,
		IDLen:       10,
		ClientAddr:  "127.0.0.1:0",
		PeerAddr:    "127.0.0.1:0",
		Transport:   serve.TCP{},
		Replication: 1,
		Serve:       serve.Config{Shards: 2, QueueDepth: 256, CacheSize: 256, DefaultDeadline: 5 * time.Second},
	}
	if seed != "" {
		cfg.Seeds = []string{seed}
	}
	n, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	return n
}

// waitMembers polls control addresses until every node reports n
// members.
func waitMembers(t *testing.T, n int, peerAddrs ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, addr := range peerAddrs {
			st, err := cluster.RemoteStatus(serve.TCP{}, addr, time.Second)
			if err != nil || len(st.Membership.Members) != n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge to %d members", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeStatusLeave boots a 3-node TCP cluster, one node through
// run()'s -peer path, reads that node's -status document, and stops
// it through the clean-leave path.
func TestServeStatusLeave(t *testing.T) {
	peerAddr, out, stop := startNode(t,
		"-id", "0000000000", "-idlen", "10", "-replication", "1")
	n2 := joinNode(t, "0101010101", peerAddr)
	defer n2.Close()
	n3 := joinNode(t, "1100110011", peerAddr)
	defer n3.Close()
	waitMembers(t, 3, peerAddr, n2.PeerAddr(), n3.PeerAddr())

	var statusOut strings.Builder
	if err := run([]string{"-status", peerAddr}, &statusOut); err != nil {
		t.Fatalf("status: %v", err)
	}
	var st cluster.Status
	if err := json.Unmarshal([]byte(statusOut.String()), &st); err != nil {
		t.Fatalf("status is not JSON: %v\n%s", err, statusOut.String())
	}
	if st.ID != "0000000000" || len(st.Membership.Members) != 3 {
		t.Fatalf("status: %+v", st)
	}
	if !st.Counts.Conserved() {
		t.Errorf("node %s identity broken: %+v", st.ID, st.Counts)
	}

	if err := stop(); err != nil {
		t.Fatalf("stop: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "leaving cluster") {
		t.Fatalf("missing leave line:\n%s", out.String())
	}
	waitMembers(t, 2, n2.PeerAddr(), n3.PeerAddr())
}

// TestProbeAgainstCluster is the in-process version of CI's
// cluster-smoke job: three TCP cluster nodes, the -probe client
// dialing one of them, a full-fidelity answer for every query, and at
// least one query riding the fabric. The nodes' explicit, spread
// identifiers make placement, and so the forwarded count,
// deterministic for the fixed probe pairs.
func TestProbeAgainstCluster(t *testing.T) {
	var nodes []*cluster.Node
	seed := ""
	for _, id := range []string{"0000000000", "0101010101", "1100110011"} {
		n := joinNode(t, id, seed)
		defer n.Close()
		nodes = append(nodes, n)
		seed = nodes[0].PeerAddr()
	}
	waitMembers(t, len(nodes), nodes[0].PeerAddr(), nodes[1].PeerAddr(), nodes[2].PeerAddr())

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
