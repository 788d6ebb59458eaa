package check

import "testing"

// TestKernelsMultiWord runs the tier oracle on graphs whose vertex
// count is past word.Count's range: pairs are sampled, and the packed
// tier's multi-word anchors and the scratch tier's suffix-tree walk
// (d > 4, and past the packed tier's 1024 bits) must match Algorithm
// 2's path hop for hop.
func TestKernelsMultiWord(t *testing.T) {
	for _, tc := range []struct{ d, k int }{{2, 256}, {3, 100}, {5, 40}, {2, 1030}} {
		rep, err := Kernels(tc.d, tc.k, KernelsOptions{Seed: 3, Pairs: 24})
		if err != nil {
			t.Fatalf("Kernels(%d,%d): %v", tc.d, tc.k, err)
		}
		for _, f := range rep.Findings {
			t.Errorf("DG(%d,%d): %s", tc.d, tc.k, f)
		}
		if !rep.Sampled || rep.Checked != 24 {
			t.Errorf("DG(%d,%d): sampled=%v checked=%d, want sampled, 24", tc.d, tc.k, rep.Sampled, rep.Checked)
		}
	}
}
