package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

// testHarness boots a converged in-memory cluster and tears it down
// with the test.
func testHarness(t *testing.T, cfg HarnessConfig) *Harness {
	t.Helper()
	if cfg.Serve.Shards == 0 {
		cfg.Serve.Shards = 4
	}
	if cfg.Serve.QueueDepth == 0 {
		cfg.Serve.QueueDepth = 256
	}
	if cfg.Serve.CacheSize == 0 {
		cfg.Serve.CacheSize = 512
	}
	if cfg.Serve.DefaultDeadline == 0 {
		cfg.Serve.DefaultDeadline = 5 * time.Second
	}
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	t.Cleanup(h.Close)
	return h
}

// allPairs enumerates every (src, dst) query pair of DG(2,5).
func allPairs(t *testing.T) [][2]word.Word {
	t.Helper()
	const d, k = 2, 5
	n, err := word.Count(d, k)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]word.Word, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src, _ := word.Unrank(d, k, uint64(i))
			dst, _ := word.Unrank(d, k, uint64(j))
			pairs = append(pairs, [2]word.Word{src, dst})
		}
	}
	return pairs
}

// respKey canonicalizes the comparable content of a response.
func respKey(r serve.Response) string {
	return fmt.Sprintf("%s|%s|%d|%v|%s|%v|%v|%s|%s",
		r.Status, r.Degrade, r.Distance, r.Path, r.NextHop, r.Done, r.Bounds, r.ShedReason, r.Error)
}

// TestClusterDifferential is the acceptance check: a 3-node cluster,
// asked at a single node, answers every query of DG(2,5) — all kinds,
// both modes — byte-identically to a single-node server.
func TestClusterDifferential(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 3, Seed: 1, IDLen: 8, Replication: 1})
	single := serve.NewServer(serve.Config{Shards: 2, QueueDepth: 256, CacheSize: 512, DefaultDeadline: 5 * time.Second})
	defer single.Close()
	oracle, err := single.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	cc, err := h.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ctx := context.Background()
	for _, pair := range allPairs(t) {
		for _, mode := range []serve.Mode{serve.Undirected, serve.Directed} {
			for _, mk := range []func(a, b word.Word, m serve.Mode) serve.Request{
				serve.DistanceRequest, serve.RouteRequest, serve.NextHopRequest,
			} {
				req := mk(pair[0], pair[1], mode)
				want, err := oracle.Do(ctx, req)
				if err != nil {
					t.Fatalf("oracle Do: %v", err)
				}
				got, err := cc.Do(ctx, req)
				if err != nil {
					t.Fatalf("cluster Do: %v", err)
				}
				if respKey(got) != respKey(want) {
					t.Fatalf("%s %s %v→%v:\n cluster: %s\n single:  %s",
						req.Kind, req.Mode, pair[0], pair[1], respKey(got), respKey(want))
				}
			}
		}
	}

	// The cluster actually exercised the fabric: with R=1 on 3 nodes,
	// about two thirds of the keys are remote to node 0.
	c := h.Counts()
	if c.Forwarded == 0 {
		t.Fatal("no query was forwarded; the differential proved nothing about the fabric")
	}
	if !c.Conserved() {
		t.Fatalf("cluster conservation violated: %+v", c)
	}
	if !c.HopConserved() {
		t.Fatalf("hop conservation violated: forwarded %d ≠ forwarded_in %d", c.Forwarded, c.ForwardedIn)
	}
}

// TestClusterHopsMatchLookup pins the distributed walk to the DHT
// oracle, query by query: a forwarded query takes at most the hops
// dht's in-process LookupOptimized reports for the same key from the
// same start (fewer only when the walk passes through a node that
// already holds the key and stops early — an exit Lookup lacks), most
// queries take exactly that many, and the mean stays within the
// identifier length, the Koorde bound.
func TestClusterHopsMatchLookup(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 8, Seed: 7, IDLen: 10, Replication: 1})
	n0 := h.Node(0)
	cc, err := h.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Rebuild the oracle ring from node 0's converged view.
	view := n0.Membership()
	ids := make([]word.Word, 0, len(view.Members))
	for _, m := range view.Members {
		ids = append(ids, word.MustParse(idBase, m.ID))
	}
	ring := mustRing(t, idBase, 10, ids)
	self, ok := ring.NodeAt(n0.ID())
	if !ok {
		t.Fatal("node 0 missing from oracle ring")
	}

	ctx := context.Background()
	totalHops, forwardedQ, exact := 0, 0, 0
	for _, pair := range allPairs(t)[:400] {
		req := serve.DistanceRequest(pair[0], pair[1], serve.Undirected)
		q, err := serve.ParseQuery(req)
		if err != nil {
			t.Fatal(err)
		}
		key, err := n0.placementKey(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ring.LookupOptimized(self, key)
		if err != nil {
			t.Fatal(err)
		}
		before := sumHops(h)
		if _, err := cc.Do(ctx, req); err != nil {
			t.Fatalf("Do: %v", err)
		}
		got := sumHops(h) - before
		owned := want.Owner == self
		if owned && got != 0 {
			t.Fatalf("key %v owned by node 0 but walked %d hops", key, got)
		}
		if !owned {
			if got < 1 || got > int64(want.Hops) {
				t.Fatalf("key %v: distributed walk took %d hops, LookupOptimized bound is %d", key, got, want.Hops)
			}
			if got == int64(want.Hops) {
				exact++
			}
			totalHops += int(got)
			forwardedQ++
		}
	}
	if forwardedQ == 0 {
		t.Fatal("no query left node 0; hop comparison proved nothing")
	}
	if exact == 0 {
		t.Fatal("every walk exited early; the oracle comparison never bit")
	}
	if mean := float64(totalHops) / float64(forwardedQ); mean > 10 {
		t.Fatalf("mean forward hops %.2f exceeds the identifier length 10", mean)
	}
	c := h.Counts()
	if !c.Conserved() || !c.HopConserved() {
		t.Fatalf("conservation violated: %+v", c)
	}
}

// sumHops totals the per-node forwarded-hop sums.
func sumHops(h *Harness) int64 {
	var total int64
	for _, n := range h.Live() {
		s, _ := n.ForwardHopStats()
		total += s
	}
	return total
}

// TestClusterDeadlinePropagation is satellite 2 end to end: the
// deadline rides the wire as remaining budget, and when a forward
// cannot complete inside it, the proxying node sheds with reason
// deadline instead of leaving the client to time out.
func TestClusterDeadlinePropagation(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 3, Seed: 3, IDLen: 8, Replication: 1})
	n0 := h.Node(0)
	cc, err := h.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Find a query node 0 does not hold, so it must forward.
	var req serve.Request
	found := false
	for _, pair := range allPairs(t) {
		r := serve.DistanceRequest(pair[0], pair[1], serve.Undirected)
		q, err := serve.ParseQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		key, err := n0.placementKey(q)
		if err != nil {
			t.Fatal(err)
		}
		n0.mu.Lock()
		holds := n0.holdsLocked(key)
		n0.mu.Unlock()
		if !holds {
			req = r
			found = true
			break
		}
	}
	if !found {
		t.Fatal("node 0 holds every key; cannot exercise forwarding")
	}

	// Slow every other node's query link far past the budget.
	for _, n := range h.Live()[1:] {
		h.Transport.SetLinkDelay(n.ClientAddr(), 80*time.Millisecond)
	}
	req.DeadlineMS = 25
	resp, err := cc.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != serve.StatusShed || resp.ShedReason != "deadline" {
		t.Fatalf("resp = %+v; want shed:deadline from the proxying node", resp)
	}
	counts := n0.Counts()
	if counts.ShedByReason["deadline"] != 1 || counts.Forwarded != 0 {
		t.Fatalf("node 0 counts = %+v; want one deadline shed, no forwarded outcome", counts)
	}
	if !counts.Conserved() {
		t.Fatalf("node 0 conservation violated: %+v", counts)
	}
}

// TestForwardStopsWhereItLands pins the walk's two stop signals on
// the receiving side: a forward frame whose hop budget is spent (TTL 0)
// or that marks the final hop is answered by the node it lands on, even
// one that holds no replica of its key and would otherwise step the
// walk on. The same frame with a live budget is forwarded, so the stop
// signal alone decides.
func TestForwardStopsWhereItLands(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 3, Seed: 3, IDLen: 8, Replication: 1})
	n0 := h.Node(0)
	cc, err := h.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// A query whose walk, resumed at node 0, steps on to a peer.
	var req serve.Request
	var fwd serve.ForwardState
	for _, pair := range allPairs(t) {
		r := serve.DistanceRequest(pair[0], pair[1], serve.Undirected)
		q, err := serve.ParseQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		key, err := n0.placementKey(q)
		if err != nil {
			t.Fatal(err)
		}
		n0.mu.Lock()
		holds := n0.holdsLocked(key)
		st, err := n0.ring.StartWalkOptimized(n0.self, key)
		stepsOn := false
		if err == nil {
			sr, serr := n0.ring.Step(n0.self, st)
			stepsOn = serr == nil && sr.Next != nil && sr.Next != n0.self
		}
		n0.mu.Unlock()
		if !holds && stepsOn {
			req = r
			fwd = serve.ForwardState{Origin: "test", Key: key.String(), Imag: st.Imaginary.String(), Remaining: st.Remaining, Hops: 1}
			break
		}
	}
	if req.Kind == "" {
		t.Fatal("no query walks on from node 0; cannot exercise the stop signals")
	}

	for _, tc := range []struct {
		name      string
		ttl       int
		final     bool
		forwarded int64
	}{
		{"ttl spent", 0, false, 0},
		{"final hop", maxHops(8), true, 0},
		{"live budget", maxHops(8), false, 1},
	} {
		before := n0.Counts()
		r := req
		f := fwd
		f.TTL, f.Final = tc.ttl, tc.final
		r.Fwd = &f
		resp, err := cc.Do(context.Background(), r)
		if err != nil || resp.Status != serve.StatusOK {
			t.Fatalf("%s: resp = %+v, %v", tc.name, resp, err)
		}
		after := n0.Counts()
		answered := after.Answered - before.Answered
		forwardedIn := after.ForwardedIn - before.ForwardedIn
		forwarded := after.Forwarded - before.Forwarded
		if forwardedIn != 1 || forwarded != tc.forwarded || answered != 1-tc.forwarded {
			t.Errorf("%s: node 0 answered +%d, forwarded_in +%d, forwarded +%d; want +%d, +1, +%d",
				tc.name, answered, forwardedIn, forwarded, 1-tc.forwarded, tc.forwarded)
		}
	}
}

// TestClusterTraceStitching follows one trace id across the fabric:
// the origin's sampled trace carries a forward span and outcome
// forwarded; the answering node's trace shares the id with outcome
// answered — one logical trace, recorded at every hop.
func TestClusterTraceStitching(t *testing.T) {
	h := testHarness(t, HarnessConfig{
		Nodes: 3, Seed: 9, IDLen: 8, Replication: 1,
		Serve: serve.Config{TraceSample: 1},
	})
	n0 := h.Node(0)
	cc, err := h.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// A request node 0 must forward.
	var req serve.Request
	for _, pair := range allPairs(t) {
		r := serve.DistanceRequest(pair[0], pair[1], serve.Undirected)
		q, _ := serve.ParseQuery(r)
		key, _ := n0.placementKey(q)
		n0.mu.Lock()
		holds := n0.holdsLocked(key)
		n0.mu.Unlock()
		if !holds {
			req = r
			break
		}
	}
	const id = obs.TraceID(0x1122334455667788)
	req.TraceID = id
	resp, err := cc.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != serve.StatusOK || resp.TraceID != id {
		t.Fatalf("resp = %+v; want ok with trace id %s", resp, id)
	}

	find := func(n *Node, wantOutcome string) *obs.ReqTrace {
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, trc := range n.Server().Traces().Recent() {
				if trc.ID == id && trc.Outcome == wantOutcome {
					return trc
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no trace %s with outcome %q on node %v", id, wantOutcome, n.ID())
			}
			time.Sleep(time.Millisecond)
		}
	}
	origin := find(n0, "forwarded")
	hasForward := false
	for _, sp := range origin.Spans {
		if sp.Name == obs.SpanForward {
			hasForward = true
		}
	}
	if !hasForward {
		t.Fatalf("origin trace lacks a forward span: %s", origin.Canonical())
	}
	answered := false
	for _, n := range h.Live()[1:] {
		for _, trc := range n.Server().Traces().Recent() {
			if trc.ID == id && trc.Outcome == "answered" {
				answered = true
			}
		}
	}
	if !answered {
		t.Fatal("no peer recorded the answering half of the trace")
	}
}

// TestClusterBatchStaysLocal pins the batch policy: batches are
// answered where they land, never split across the fabric.
func TestClusterBatchStaysLocal(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 3, Seed: 11, IDLen: 8, Replication: 1})
	cc, err := h.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	pairs := allPairs(t)
	req := serve.BatchRequest(
		serve.DistanceRequest(pairs[3][0], pairs[3][1], serve.Undirected),
		serve.RouteRequest(pairs[77][0], pairs[77][1], serve.Directed),
		serve.NextHopRequest(pairs[501][0], pairs[501][1], serve.Undirected),
	)
	resp, err := cc.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != serve.StatusOK || len(resp.Batch) != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	c := h.Counts()
	if c.Forwarded != 0 || c.ForwardedIn != 0 {
		t.Fatalf("batch rode the fabric: %+v", c)
	}
}
