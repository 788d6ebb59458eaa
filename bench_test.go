// Benchmark harness: one benchmark family per experiment of DESIGN.md
// §4. Run with
//
//	go test -bench=. -benchmem .
//
// E5/E6 (complexity and crossover): BenchmarkAlg1/Alg2/Alg4 sweep the
// diameter k; Alg2 grows quadratically, Alg1/Alg4 linearly, and the
// k where Alg4 overtakes Alg2 is the Section 4 crossover.
// E2: BenchmarkBFSBaseline vs BenchmarkDistance shows the exponential
// separation justifying the closed-form distance functions.
// E3/E4: the mean-distance computations behind eq. (5) and Figure 2.
// E7: the network simulator. E8: fault tolerance. E9: the
// sequence/embedding substrate.
package debruijn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dbseq"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/suffixtree"
	"repro/internal/word"
)

// pairsFor pre-draws deterministic random word pairs.
func pairsFor(d, k, n int, seed int64) [][2]word.Word {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]word.Word, n)
	for i := range out {
		out[i] = [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)}
	}
	return out
}

var benchKs = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// BenchmarkAlg1 routes in the uni-directional network: O(k) expected.
func BenchmarkAlg1(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pairs := pairsFor(2, k, 64, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.RouteDirected(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlg2 routes in the bi-directional network with the
// failure-function algorithm: O(k²) expected.
func BenchmarkAlg2(b *testing.B) {
	for _, k := range benchKs {
		if k > 1024 {
			continue // quadratic: keep the sweep affordable
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pairs := pairsFor(2, k, 64, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.RouteUndirected(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlg4 routes in the bi-directional network with the compact
// prefix tree: O(k) expected.
func BenchmarkAlg4(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pairs := pairsFor(2, k, 64, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := core.RouteUndirectedLinear(p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistance evaluates the distance functions alone.
func BenchmarkDistance(b *testing.B) {
	for _, variant := range []struct {
		name string
		fn   func(x, y word.Word) (int, error)
	}{
		{"directed", core.DirectedDistance},
		{"undirectedQuadratic", core.UndirectedDistance},
		{"undirectedLinear", core.UndirectedDistanceLinear},
	} {
		for _, k := range []int{8, 64, 512} {
			b.Run(fmt.Sprintf("%s/k=%d", variant.name, k), func(b *testing.B) {
				pairs := pairsFor(2, k, 64, 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					if _, err := variant.fn(p[0], p[1]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBFSBaseline measures the graph-search alternative the
// closed-form distance functions replace: O(N) = O(d^k) per query.
func BenchmarkBFSBaseline(b *testing.B) {
	for _, k := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g, err := graph.DeBruijn(graph.Undirected, 2, k)
			if err != nil {
				b.Fatal(err)
			}
			pairs := pairsFor(2, k, 64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				u := graph.DeBruijnVertex(p[0])
				v := graph.DeBruijnVertex(p[1])
				if _, err := g.Distance(u, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSuffixTreeBuild isolates the Algorithm 4 tree construction.
func BenchmarkSuffixTreeBuild(b *testing.B) {
	for _, k := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			s := make([]byte, 2*k+2)
			for i := 0; i < k; i++ {
				s[i] = byte(rng.Intn(2))
				s[k+1+i] = byte(rng.Intn(2))
			}
			s[k] = 0xFE
			s[2*k+1] = 0xFF
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := suffixtree.Build(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildGraph is the E1 substrate cost: constructing DG(d,k).
func BenchmarkBuildGraph(b *testing.B) {
	for _, cfg := range []struct {
		kind graph.Kind
		d, k int
	}{
		{graph.Directed, 2, 10},
		{graph.Undirected, 2, 10},
		{graph.Undirected, 4, 5},
	} {
		b.Run(fmt.Sprintf("%v/d=%d/k=%d", cfg.kind, cfg.d, cfg.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.DeBruijn(cfg.kind, cfg.d, cfg.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectedMeanExact regenerates the E3 (eq. 5) measurements.
func BenchmarkDirectedMeanExact(b *testing.B) {
	for _, dk := range [][2]int{{2, 6}, {2, 8}, {3, 4}} {
		b.Run(fmt.Sprintf("d=%d/k=%d", dk[0], dk[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DirectedMeanExact(dk[0], dk[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUndirectedMean regenerates the Figure 2 (E4) series points.
func BenchmarkUndirectedMean(b *testing.B) {
	b.Run("exact/d=2/k=6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.UndirectedMeanExact(2, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled/d=2/k=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.UndirectedMeanSampled(2, 16, 1000, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulator pushes uniform traffic through the synchronous
// engine (E7).
func BenchmarkSimulator(b *testing.B) {
	for _, cfg := range []network.Config{
		{D: 2, K: 10, Unidirectional: true, Seed: 8},
		{D: 2, K: 10, Seed: 8},
		{D: 4, K: 5, Seed: 8, Policy: network.PolicyLeastLoaded{}},
	} {
		name := "bidirectional"
		if cfg.Unidirectional {
			name = "unidirectional"
		}
		if cfg.Policy != nil {
			name += "/" + cfg.Policy.Name()
		}
		b.Run(fmt.Sprintf("%s/d=%d/k=%d", name, cfg.D, cfg.K), func(b *testing.B) {
			n, err := network.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			w := network.Uniform{D: cfg.D, K: cfg.K}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := network.RunWorkload(n, w, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultTolerance measures the E8 connectivity sweep.
func BenchmarkFaultTolerance(b *testing.B) {
	g, err := graph.DeBruijn(graph.Undirected, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exhaustive/f=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fault.ExhaustiveTolerance(g, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stretch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fault.RerouteStretch(g, []int{1, 2}, 50, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSequence measures the E9 substrate: de Bruijn sequence
// generation both ways and Hamiltonian cycles.
func BenchmarkSequence(b *testing.B) {
	b.Run("FKM/d=2/n=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbseq.Sequence(2, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Euler/d=2/n=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbseq.SequenceViaEuler(2, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HamiltonianCycle/d=2/k=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbseq.HamiltonianCycle(2, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
}
