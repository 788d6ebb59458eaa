// Benchmarks for the extended subsystems: forwarding-mode comparison
// (source vs destination vs table routing), the wire codec, broadcast,
// the contention engine, and the sequence constructions. Same harness:
// go test -bench=. -benchmem .
package debruijn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dbseq"
	"repro/internal/network"
	"repro/internal/word"
)

// BenchmarkForwardingModes compares the per-message cost of the three
// optimal forwarding modes on DN(2,8) (E13).
func BenchmarkForwardingModes(b *testing.B) {
	const d, k = 2, 8
	pairs := pairsFor(d, k, 128, 21)
	b.Run("source", func(b *testing.B) {
		n, err := network.New(network.Config{D: d, K: k})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := n.Send(p[0], p[1], ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("destination", func(b *testing.B) {
		n, err := network.New(network.Config{D: d, K: k})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := n.SendDestinationRouted(p[0], p[1], ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		kn := core.NewKernels(core.KernelConfig{SyncTableBuild: true})
		if tier := kn.TierFor(d, k); tier != core.TierTable {
			b.Fatalf("DG(%d,%d) resolved to the %s tier, want table", d, k, tier)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := core.SelfRoute(p[0], p[1], kn.NextHopUndirected, nil, 4*k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireCodec measures the five-field message codec.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	src, dst := word.Random(2, 16, rng), word.Random(2, 16, rng)
	route, err := core.RouteUndirectedLinear(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	msg := network.Message{Control: network.ControlData, Source: src, Dest: dst, Route: route, Payload: "0123456789abcdef"}
	buf, err := network.MarshalMessage(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := network.MarshalMessage(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := network.UnmarshalMessage(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBroadcast compares dissemination strategies (E11).
func BenchmarkBroadcast(b *testing.B) {
	src := word.MustParse(2, "00000000")
	for _, mode := range []string{"flood", "tree"} {
		b.Run(mode+"/d=2/k=8", func(b *testing.B) {
			n, err := network.New(network.Config{D: 2, K: 8})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "flood" {
					if _, err := n.FloodBroadcast(src); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := n.TreeBroadcast(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkContention runs the store-and-forward batch engine (E14).
func BenchmarkContention(b *testing.B) {
	for _, batch := range []int{250, 1000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := network.NewContention(network.ContentionConfig{D: 2, K: 8, Seed: 23, Policy: network.PlanLeastLoaded{}})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.AddUniform(batch); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelfRouting isolates the per-hop next-hop computations of
// the kernel engine, on whichever tier answers DG(2,k) (table at k=8,
// packed above).
func BenchmarkSelfRouting(b *testing.B) {
	for _, k := range []int{8, 64, 512} {
		pairs := pairsFor(2, k, 64, 24)
		kn := core.NewKernels(core.KernelConfig{SyncTableBuild: true})
		kn.TierFor(2, k)
		b.Run(fmt.Sprintf("directed/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, _, err := kn.NextHopDirected(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("undirected/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, _, err := kn.NextHopUndirected(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedySequence covers the third sequence construction.
func BenchmarkGreedySequence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dbseq.SequenceGreedy(2, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterAblation is the §4 constant-factor study: the
// allocation-free reusable-scratch Algorithm 2 (core.Router) against
// the allocating baseline and the linear Algorithm 4, at practical
// diameters. The paper's point — for realistic k the simpler O(k²)
// machinery, carefully implemented, is competitive — in numbers.
func BenchmarkRouterAblation(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64} {
		pairs := pairsFor(2, k, 64, 25)
		b.Run(fmt.Sprintf("alg2-baseline/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.RouteUndirected(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("alg2-router/k=%d", k), func(b *testing.B) {
			r := core.NewRouter(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := r.Route(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("alg4/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.RouteUndirectedLinear(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
