package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

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

// startNode boots the full run() serving path on ephemeral ports and
// returns the bound query and control addresses plus a stop function
// that triggers the clean-leave path and returns run's error.
func startNode(t *testing.T, args ...string) (clientAddr, peerAddr string, out *syncBuffer, stop func() error) {
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
			clientAddr, peerAddr = m[1], m[2]
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
	return clientAddr, peerAddr, out, func() error {
		close(testStop)
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			return fmt.Errorf("run did not exit after stop")
		}
	}
}

// joinNode boots an in-process TCP node joined through seed.
func joinNode(t *testing.T, id, seed string) *cluster.Node {
	t.Helper()
	n, err := cluster.New(cluster.Config{
		ID:          id,
		IDLen:       10,
		ClientAddr:  "127.0.0.1:0",
		PeerAddr:    "127.0.0.1:0",
		Transport:   serve.TCP{},
		Replication: 1,
		Seeds:       []string{seed},
		Serve:       serve.Config{Shards: 2, QueueDepth: 256, CacheSize: 256, DefaultDeadline: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("join node %s: %v", id, err)
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
// the full run() path, reads that node's -status document, and stops
// it through the clean-leave path. dbserve's TestProbeAgainstCluster
// sends the smoke queries the CI job sends.
func TestServeStatusLeave(t *testing.T) {
	_, peerAddr, out, stop := startNode(t,
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
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, &strings.Builder{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestStatusDeadPeer(t *testing.T) {
	if err := run([]string{"-status", "127.0.0.1:1"}, &strings.Builder{}); err == nil {
		t.Fatal("status against a dead address succeeded")
	}
}
