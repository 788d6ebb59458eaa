package core

import (
	"math/rand"
	"testing"

	"repro/internal/word"
)

func benchPairs(k, n int) [][2]word.Word {
	rng := rand.New(rand.NewSource(17))
	out := make([][2]word.Word, n)
	for i := range out {
		out[i] = [2]word.Word{word.Random(2, k, rng), word.Random(2, k, rng)}
	}
	return out
}

// BenchmarkRoute is the §4 constant-factor guard: Router.Route on
// DG(2,64) pairs (run with -benchmem).
func BenchmarkRoute(b *testing.B) {
	const k = 64
	r := NewRouter(k)
	pairs := benchPairs(k, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := r.Route(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}
