// Selfrouting: three ways to forward the same traffic on DN(2,6),
// all optimal, with different per-site costs:
//
//  1. source routing — the paper's message format: the source computes
//     the canonical shortest path once (core.Kernels) and attaches it;
//  2. destination routing — no path field: every site recomputes its
//     next hop in O(k) from (current, destination);
//  3. table routing — every site forwards with one lookup into a
//     precomputed next-hop table (the rank-table tier of core.Kernels,
//     whose per-site rows are the O(N) tables the paper's algorithms
//     make unnecessary).
//
// The example also round-trips a message through the binary wire
// format to show the five-field header is a real codec, not just a
// struct.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/word"
)

const (
	d = 2
	k = 6
)

func main() {
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]word.Word, 200)
	for i := range pairs {
		pairs[i] = [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)}
	}

	// 1. Source routing.
	src, err := network.New(network.Config{D: d, K: k})
	if err != nil {
		log.Fatal(err)
	}
	srcHops := 0
	for _, p := range pairs {
		del, err := src.Send(p[0], p[1], "source-routed")
		if err != nil {
			log.Fatal(err)
		}
		if !del.Delivered {
			log.Fatalf("drop: %s", del.DropReason)
		}
		srcHops += del.Hops
	}

	// 2. Destination routing.
	dst, err := network.New(network.Config{D: d, K: k})
	if err != nil {
		log.Fatal(err)
	}
	dstHops := 0
	for _, p := range pairs {
		del, err := dst.SendDestinationRouted(p[0], p[1], "destination-routed")
		if err != nil {
			log.Fatal(err)
		}
		if !del.Delivered {
			log.Fatalf("drop: %s", del.DropReason)
		}
		dstHops += del.Hops
	}

	// 3. Table routing.
	kn := core.NewKernels(core.KernelConfig{SyncTableBuild: true})
	tblHops := 0
	for _, p := range pairs {
		walk, err := core.SelfRoute(p[0], p[1], kn.NextHopUndirected, nil, 4*k)
		if err != nil {
			log.Fatal(err)
		}
		tblHops += len(walk) - 1
	}

	fmt.Printf("DN(%d,%d), %d random pairs:\n", d, k, len(pairs))
	fmt.Printf("  source routing:      %d hops (per-message route computation, O(k) header)\n", srcHops)
	fmt.Printf("  destination routing: %d hops (O(k) work per hop, O(1) header)\n", dstHops)
	fmt.Printf("  table routing:       %d hops (O(1) per hop, %s tier)\n",
		tblHops, kn.TierFor(d, k))
	if srcHops != dstHops || dstHops != tblHops {
		log.Fatal("forwarding modes disagree — they must all be optimal")
	}
	fmt.Println("  all three modes agree with the distance function ✓")

	// Wire format round trip.
	x, y := pairs[0][0], pairs[0][1]
	route, err := core.RouteUndirectedLinear(x, y)
	if err != nil {
		log.Fatal(err)
	}
	msg := network.Message{
		Control: network.ControlData,
		Source:  x,
		Dest:    y,
		Route:   route,
		Payload: "five fields on the wire",
	}
	buf, err := network.MarshalMessage(msg)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := network.UnmarshalMessage(buf)
	if err != nil {
		log.Fatal(err)
	}
	del, err := src.Inject(decoded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwire format: %d-byte message %v→%v decoded and delivered in %d hops ✓\n",
		len(buf), x, y, del.Hops)
}
