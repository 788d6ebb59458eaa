package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/serve"
	"repro/internal/word"
)

func mustRing(t *testing.T, d, k int, ids []word.Word) *dht.Ring {
	t.Helper()
	r, err := dht.NewRing(d, k, ids)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestClusterChurnConservation is satellite 3: a seeded cluster under
// load with a mid-run crash and a mid-run join, where every request
// still resolves to exactly one outcome and the cluster-wide
// conservation identity — killed node included — holds exactly.
func TestClusterChurnConservation(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 5, Seed: 42, IDLen: 10, Replication: 2})
	pairs := allPairs(t)

	// Clients attach to nodes 0 and 1 only; node 4 is the crash
	// victim, so no client connection dies with it.
	var clients []*serve.Client
	for i := 0; i < 2; i++ {
		c, err := h.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}

	const (
		drivers   = 4
		perDriver = 300
		churnAt   = 100 // requests per driver before the churn events
	)
	var mu sync.Mutex
	outcomes := map[string]int{}
	var wg sync.WaitGroup
	var churnOnce sync.Once
	killed := make(chan serve.Counts, 1)
	churn := func() {
		counts, err := h.Kill(4)
		if err != nil {
			t.Errorf("Kill: %v", err)
		}
		killed <- counts
		if _, err := h.Join(); err != nil {
			t.Errorf("Join: %v", err)
		}
	}
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + d)))
			c := clients[d%len(clients)]
			for i := 0; i < perDriver; i++ {
				if i == churnAt && d == 0 {
					churnOnce.Do(churn)
				}
				pair := pairs[rng.Intn(len(pairs))]
				var req serve.Request
				switch i % 3 {
				case 0:
					req = serve.DistanceRequest(pair[0], pair[1], serve.Undirected)
				case 1:
					req = serve.RouteRequest(pair[0], pair[1], serve.Directed)
				default:
					req = serve.NextHopRequest(pair[0], pair[1], serve.Undirected)
				}
				resp, err := c.Do(context.Background(), req)
				if err != nil {
					t.Errorf("driver %d: Do: %v", d, err)
					return
				}
				mu.Lock()
				outcomes[resp.Status]++
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()

	killedCounts := <-killed
	if !killedCounts.Conserved() {
		t.Fatalf("killed node's identity broken: %+v", killedCounts)
	}

	// Quiesce: no new requests; in-flight forwards have resolved once
	// every driver returned. The identity must hold exactly, per node
	// and in sum, with the crashed node's final counts folded in.
	c := h.Counts(killedCounts)
	for i, per := range c.PerNode {
		if !per.Conserved() {
			t.Fatalf("node %d identity broken: %+v", i, per)
		}
	}
	if !c.Conserved() {
		t.Fatalf("cluster conservation violated: %+v", c)
	}
	// Every client request resolved to exactly one response.
	total := 0
	for _, v := range outcomes {
		total += v
	}
	if want := drivers * perDriver; total != want {
		t.Fatalf("clients saw %d responses for %d requests", total, want)
	}
	if outcomes["ok"] == 0 {
		t.Fatal("no request answered ok under churn")
	}
	// Hop conservation relaxes under churn only toward admitted-but-
	// unconsumed forwards; the reverse direction would mean invented
	// outcomes.
	if c.Forwarded > c.ForwardedIn {
		t.Fatalf("more forwarded outcomes (%d) than admitted forwards (%d)", c.Forwarded, c.ForwardedIn)
	}
	if c.ForwardedIn == 0 {
		t.Fatal("nothing rode the fabric; churn test proved nothing")
	}
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("membership did not re-converge after churn: %v", err)
	}
	for _, n := range h.Live() {
		if got := len(n.Membership().Members); got != 5 {
			t.Fatalf("node %v sees %d members after kill+join; want 5", n.ID(), got)
		}
	}
}

// TestMembershipOrdering pins the total order of views.
func TestMembershipOrdering(t *testing.T) {
	a := Membership{Version: 3, Origin: "aaa"}
	b := Membership{Version: 4, Origin: "000"}
	if !b.Newer(a) || a.Newer(b) {
		t.Fatal("higher version must win")
	}
	c := Membership{Version: 3, Origin: "bbb"}
	if !c.Newer(a) || a.Newer(c) {
		t.Fatal("origin must break version ties")
	}
	if a.Newer(a) {
		t.Fatal("a view does not supersede itself")
	}
}

// TestDeriveIDDeterministic pins identifier derivation: pure in
// (seed, attempt), different across attempts.
func TestDeriveIDDeterministic(t *testing.T) {
	a := DeriveID(16, "127.0.0.1:4600", 0)
	b := DeriveID(16, "127.0.0.1:4600", 0)
	if a.String() != b.String() {
		t.Fatal("derivation not deterministic")
	}
	c := DeriveID(16, "127.0.0.1:4600", 1)
	if a.String() == c.String() {
		t.Fatal("attempt counter changed nothing")
	}
}

// TestPlacementStability pins that a query's placement key is a pure
// function of the query (the property that makes the partition a
// cache partition).
func TestPlacementStability(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 2, Seed: 13, IDLen: 8})
	req := serve.DistanceRequest(word.MustParse(2, "00110"), word.MustParse(2, "11010"), serve.Undirected)
	q, err := serve.ParseQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	k0, err := h.Node(0).placementKey(q)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := h.Node(1).placementKey(q)
	if err != nil {
		t.Fatal(err)
	}
	if k0.String() != k1.String() {
		t.Fatalf("nodes disagree on placement: %v vs %v", k0, k1)
	}
	q2, _ := serve.ParseQuery(serve.DistanceRequest(word.MustParse(2, "00110"), word.MustParse(2, "11010"), serve.Directed))
	k2, _ := h.Node(0).placementKey(q2)
	if k0.String() == k2.String() {
		t.Log("directed/undirected hash to the same identifier (possible, just unlikely)")
	}
}

// TestJoinCollisionRejected pins the identity guard: a join with an
// identifier another address holds is refused.
func TestJoinCollisionRejected(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 1, Seed: 17, IDLen: 8})
	n0 := h.Node(0)
	scfg := serve.Config{Shards: 2, QueueDepth: 16}
	_, err := New(Config{
		ID:         n0.ID().String(),
		IDLen:      8,
		ClientAddr: "collide-c",
		PeerAddr:   "collide-p",
		Transport:  h.Transport,
		Seeds:      []string{n0.PeerAddr()},
		Serve:      scfg,
	})
	if err == nil {
		t.Fatal("join with a taken explicit identifier succeeded")
	}
	if errors.Is(err, ErrSingleShard) {
		t.Fatalf("wrong rejection: %v", err)
	}
}
