package check

import "testing"

// FuzzCheckRoutes lets the fuzzer pick the graph and the sampling
// seed; the route oracle itself is the property — any finding on any
// valid DG(d,k) is a routing-stack bug.
func FuzzCheckRoutes(f *testing.F) {
	f.Add(2, 3, int64(1))
	f.Add(3, 2, int64(2))
	f.Add(2, 1, int64(3))
	f.Add(5, 1, int64(4))
	f.Fuzz(func(t *testing.T, d, k int, seed int64) {
		if d < 2 || d > 8 || k < 1 || k > 8 {
			t.Skip()
		}
		n := 1
		for i := 0; i < k; i++ {
			n *= d
			if n > 512 {
				t.Skip()
			}
		}
		rep, err := Routes(d, k, RoutesOptions{Seed: seed, SampleAbove: 256, SamplePairs: 512})
		if err != nil {
			t.Fatalf("Routes(%d,%d): %v", d, k, err)
		}
		if !rep.OK() {
			t.Fatalf("Routes(%d,%d) seed %d: %v", d, k, seed, rep.Findings)
		}
	})
}
