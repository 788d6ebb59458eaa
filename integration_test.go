package debruijn_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/embed"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/word"
)

// TestIntegrationPipeline drives one randomized end-to-end scenario
// through every major subsystem: build the graph, route with all
// algorithms, simulate delivery (source, destination, table and wire
// modes), inject failures and reroute, broadcast, and run DHT lookups
// — asserting cross-module consistency at each step.
func TestIntegrationPipeline(t *testing.T) {
	const d, k = 2, 6
	rng := rand.New(rand.NewSource(777))

	g, err := graph.DeBruijn(graph.Undirected, d, k)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(network.Config{D: d, K: k, Policy: network.PolicyLeastLoaded{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kn := core.NewKernels(core.KernelConfig{SyncTableBuild: true})

	for trial := 0; trial < 150; trial++ {
		x := word.Random(d, k, rng)
		y := word.Random(d, k, rng)
		// 1. All distance evaluations agree with BFS.
		want, err := g.Distance(graph.DeBruijnVertex(x), graph.DeBruijnVertex(y))
		if err != nil {
			t.Fatal(err)
		}
		for name, dist := range map[string]func(a, b word.Word) (int, error){
			"theorem2":  core.UndirectedDistance,
			"corollary": core.UndirectedDistanceCorollary,
			"linear":    core.UndirectedDistanceLinear,
		} {
			got, err := dist(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: D(%v,%v) = %d, BFS %d", name, x, y, got, want)
			}
		}
		// 2. Simulated delivery: four forwarding modes, same hops.
		del, err := net.Send(x, y, "src-routed")
		if err != nil {
			t.Fatal(err)
		}
		dd, err := net.SendDestinationRouted(x, y, "dst-routed")
		if err != nil {
			t.Fatal(err)
		}
		walk, err := core.SelfRoute(x, y, kn.NextHopUndirected, nil, 4*k)
		if err != nil {
			t.Fatal(err)
		}
		if !del.Delivered || !dd.Delivered {
			t.Fatalf("drops: %+v %+v", del, dd)
		}
		if del.Hops != want || dd.Hops != want || len(walk)-1 != want {
			t.Fatalf("mode hop mismatch: %d/%d/%d want %d", del.Hops, dd.Hops, len(walk)-1, want)
		}
		// 3. Wire round trip of the routed message re-delivers.
		buf, err := network.MarshalMessage(del.Msg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := network.UnmarshalMessage(buf)
		if err != nil {
			t.Fatal(err)
		}
		redel, err := net.Inject(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !redel.Delivered || redel.Hops != want {
			t.Fatalf("wire redelivery: %+v", redel)
		}
	}

	// 4. Failure handling: one failed site (< 2d-2 connectivity)
	// leaves everything reachable adaptively.
	victim := word.Random(d, k, rng)
	adaptive, err := network.New(network.Config{D: d, K: k, Adaptive: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := adaptive.FailSite(victim); err != nil {
		t.Fatal(err)
	}
	blocked := map[int]bool{graph.DeBruijnVertex(victim): true}
	if !g.IsConnectedAvoiding(blocked) {
		t.Fatal("single failure disconnected DG(2,6)")
	}
	for trial := 0; trial < 60; trial++ {
		x := word.Random(d, k, rng)
		y := word.Random(d, k, rng)
		if x.Equal(victim) || y.Equal(victim) {
			continue
		}
		del, err := adaptive.Send(x, y, "faulty")
		if err != nil {
			t.Fatal(err)
		}
		if !del.Delivered {
			t.Fatalf("adaptive drop %v→%v: %s", x, y, del.DropReason)
		}
	}
	res, err := fault.RerouteStretch(g, []int{graph.DeBruijnVertex(victim)}, 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disconnected != 0 {
		t.Fatalf("stretch run disconnected %d pairs", res.Disconnected)
	}

	// 5. Broadcast from a ring embedding vertex reaches all sites.
	ring, err := embed.Ring(d, k)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := net.TreeBroadcast(ring[0])
	if err != nil {
		t.Fatal(err)
	}
	if bres.Reached != g.NumVertices() {
		t.Fatalf("broadcast reached %d of %d", bres.Reached, g.NumVertices())
	}

	// 6. DHT lookups resolve the correct owners.
	ids := make([]word.Word, 12)
	for i := range ids {
		ids[i] = word.Random(d, k, rng)
	}
	ringDHT, err := dht.NewRing(d, k, ids)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		key := word.Random(d, k, rng)
		start := ringDHT.Nodes()[rng.Intn(ringDHT.NumNodes())]
		lres, err := ringDHT.LookupOptimized(start, key)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := ringDHT.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		if lres.Owner != owner {
			t.Fatalf("dht lookup(%v) = %v, owner %v", key, lres.Owner.ID(), owner.ID())
		}
	}
}
