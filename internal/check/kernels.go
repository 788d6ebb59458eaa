package check

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/word"
)

// KernelsOptions parameterizes the kernel-tier differential oracle.
type KernelsOptions struct {
	// Seed drives the pair sample on graphs too large to sweep
	// exhaustively.
	Seed int64
	// Pairs is the sample size above the exhaustive threshold. 0
	// means 2048.
	Pairs int
	// SampleAbove is the vertex count beyond which ordered pairs are
	// sampled instead of enumerated. 0 means 128 (exhaustive pair
	// sweeps are quadratic in N). A vertex count past word.Count's
	// range (d^k > 2^62, every multi-word packed graph among them) is
	// always above it.
	SampleAbove int
	// MaxFindings caps the findings per report. 0 means 32.
	MaxFindings int
}

func (o *KernelsOptions) defaults() {
	if o.Pairs == 0 {
		o.Pairs = 2048
	}
	if o.SampleAbove == 0 {
		o.SampleAbove = 128
	}
}

// Kernels runs the tier-differential oracle on DG(d,k): the same
// query evaluated by every rung of the kernel ladder must produce
// byte-identical answers to the tier-free reference — Property 1,
// Theorem 2's quadratic sweep and Algorithm 2's path. Two engines
// are checked: the packed engine (T2 within the plane budget, T3's
// suffix-tree walk past it) and the table-admitting engine (T1 where
// the pair matrix fits the default budget, built synchronously).
// Every directed distance, undirected distance, canonical route (hop
// for hop) and next hop is compared, and on exhaustively swept graphs
// every distance column (DistanceColumn toward each destination, both
// orientations). Each engine's route anchors (RouteAnchor, and
// RouteAnchorDirected for Algorithm 1) must pass Anchor.Hops and
// Anchor.Joins and expand through core.AppendRoute to the reference
// paths. Algorithm 4's one-shots (UndirectedDistanceLinear,
// RouteUndirectedLinear) answer the same pairs, so the suffix-tree
// walk's tie-break is checked on every graph, not only past the
// budget. Sampled graphs mix uniform pairs with a structured family
// (structuredPair) that reaches equal-distance anchor ties. The
// ladder's contract is exact equality, not mere optimality: tier
// selection must be semantically invisible.
func Kernels(d, k int, opt KernelsOptions) (Report, error) {
	opt.defaults()
	rep := Report{Mode: "kernels", D: d, K: k}
	n, err := word.Count(d, k)
	if errors.Is(err, word.ErrOverflow) {
		n = math.MaxInt
	} else if err != nil {
		return rep, fmt.Errorf("check: DG(%d,%d): %w", d, k, err)
	}
	engines := []struct {
		name string
		kn   *core.Kernels
	}{
		{"packed", core.NewKernels(core.KernelConfig{TableBudget: -1})},
		{"table", core.NewKernels(core.KernelConfig{SyncTableBuild: true})},
	}
	f := newFindings(opt.MaxFindings)

	var pairs [][2]word.Word
	var words []word.Word
	exhaustive := n <= opt.SampleAbove
	if exhaustive {
		words = make([]word.Word, 0, n)
		word.ForEach(d, k, func(w word.Word) bool {
			words = append(words, w)
			return true
		})
		for _, x := range words {
			for _, y := range words {
				pairs = append(pairs, [2]word.Word{x, y})
			}
		}
	} else {
		rep.Sampled = true
		rng := rand.New(rand.NewSource(opt.Seed))
		for i := 0; i < opt.Pairs; i++ {
			if i%4 == 3 {
				pairs = append(pairs, structuredPair(d, k, rng))
				continue
			}
			pairs = append(pairs, [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)})
		}
	}

	// On exhaustive graphs the references of every pair, row-major by
	// rank, also check each engine's distance columns.
	var refU, refD []int32
	if exhaustive {
		refU, refD = make([]int32, len(pairs)), make([]int32, len(pairs))
	}
	for _, p := range pairs {
		if f.full() {
			rep.Truncated = true
			break
		}
		x, y := p[0], p[1]
		wantU, err := core.UndirectedDistance(x, y)
		if err != nil {
			return rep, fmt.Errorf("check: reference UndirectedDistance(%v,%v): %w", x, y, err)
		}
		wantD, err := core.DirectedDistance(x, y)
		if err != nil {
			return rep, fmt.Errorf("check: reference DirectedDistance(%v,%v): %w", x, y, err)
		}
		wantP, err := core.RouteUndirected(x, y)
		if err != nil {
			return rep, fmt.Errorf("check: reference RouteUndirected(%v,%v): %w", x, y, err)
		}
		wantDP, err := core.RouteDirected(x, y)
		if err != nil {
			return rep, fmt.Errorf("check: reference RouteDirected(%v,%v): %w", x, y, err)
		}
		var wantH core.Hop
		wantOK := len(wantP) > 0
		if wantOK {
			wantH = wantP[0]
		}
		for _, e := range engines {
			compareKernel(f, e.name, e.kn, x, y, wantU, wantD, wantP, wantH, wantOK)
			compareAnchors(f, e.name, e.kn, x, y, wantP, wantDP)
		}
		compareLinear(f, x, y, wantU, wantP)
		if exhaustive {
			refU[rep.Checked], refD[rep.Checked] = int32(wantU), int32(wantD)
		}
		rep.Checked++
	}
	if exhaustive && rep.Checked == len(pairs) {
		for _, e := range engines {
			compareColumns(f, e.name, e.kn, words, refU, refD)
		}
	}
	rep.Findings = f.result()
	rep.Truncated = rep.Truncated || f.full()
	return rep, nil
}

// structuredPair draws a pair whose Theorem 2 minimum lies well below
// k and often has several minimizers, from one of three families:
//   - y is x shifted by a few digits with a fresh fill;
//   - x and y share one short period at an offset;
//   - nested runs: y ends with a word T, and the suffixes of T of
//     lengths θ, 2θ, 4θ, … are copied into x, the one of length l at
//     position c+l (c ≤ 0), so each is a run of the l-part worth the
//     same k−1+c and the sweep's first minimizer is the shortest. Half
//     of these pairs are mirrored (both words reversed), which makes
//     them r-part ties.
//
// Uniform pairs over a large alphabet almost never tie, so without
// these families the sampled graphs would not reach the tie-break
// between equal-distance anchors. The nested runs are copies, not
// chance agreements, so they tie on every alphabet.
func structuredPair(d, k int, rng *rand.Rand) [2]word.Word {
	x, y := make([]byte, k), make([]byte, k)
	switch rng.Intn(3) {
	case 0:
		for i := range x {
			x[i], y[i] = byte(rng.Intn(d)), byte(rng.Intn(d))
		}
		s := 1 + rng.Intn(max(1, k/4))
		if rng.Intn(2) == 0 {
			copy(y, x[s:])
		} else {
			copy(y[s:], x)
		}
	case 1:
		// The block is binary: digits 0 and 1, or for d ≥ 3 half the
		// time 0 and 2^(b-1), which differ in the top digit plane
		// alone.
		one := byte(1)
		if d >= 3 && rng.Intn(2) == 0 {
			one <<= word.PackedBits(d) - 1
		}
		block := make([]byte, 1+rng.Intn(4))
		for i := range block {
			block[i] = one * byte(rng.Intn(2))
		}
		r := 1 + rng.Intn(len(block))
		for i := range x {
			x[i], y[i] = block[i%len(block)], block[(i+r)%len(block)]
		}
		y[rng.Intn(k)] = byte(rng.Intn(d))
	default:
		for i := range x {
			x[i], y[i] = byte(rng.Intn(d)), byte(rng.Intn(d))
		}
		th := 1 + rng.Intn(max(1, k/8))
		c := 1 - th + rng.Intn(th) // 1-indexed: the copy of length l starts at x_{c+l}
		for l := th; c+2*l-1 <= k; l *= 2 {
			copy(x[c+l-1:], y[k-l:])
		}
		if rng.Intn(2) == 0 {
			slices.Reverse(x)
			slices.Reverse(y)
		}
	}
	return [2]word.Word{word.MustNew(d, x), word.MustNew(d, y)}
}

// compareColumns checks kn.DistanceColumn toward every destination,
// undirected and directed, against the row-major reference matrices.
func compareColumns(f *findings, name string, kn *core.Kernels, words []word.Word, refU, refD []int32) {
	n := len(words)
	col := make([]uint8, n)
	for j, y := range words {
		for _, c := range []struct {
			directed bool
			oracle   string
			ref      []int32
		}{{false, "kernel-column-udist", refU}, {true, "kernel-column-ddist", refD}} {
			if err := kn.DistanceColumn(y, c.directed, col); err != nil {
				f.addf(c.oracle, "%s: column toward %v: %v", name, y, err)
				continue
			}
			for v, got := range col {
				if want := c.ref[v*n+j]; int32(got) != want {
					f.addf(c.oracle, "%s: column toward %v: D(%v) = %d, reference %d", name, y, words[v], got, want)
				}
			}
		}
	}
}

// compareLinear checks Algorithm 4's one-shots against the references.
func compareLinear(f *findings, x, y word.Word, wantU int, wantP core.Path) {
	if got, err := core.UndirectedDistanceLinear(x, y); err != nil || got != wantU {
		f.addf("kernel-udist", "linear: D(%v,%v) = %d (err %v), reference %d", x, y, got, err, wantU)
	}
	if got, err := core.RouteUndirectedLinear(x, y); err != nil || !slices.Equal(got, wantP) {
		f.addf("kernel-route", "linear: route(%v,%v) = %v (err %v), reference %v", x, y, got, err, wantP)
	}
}

// compareAnchors checks that kn's undirected and directed route
// anchors are anchors Hops accepts that join x to y, and that
// AppendRoute expands them to Algorithm 2's and Algorithm 1's paths,
// hop for hop.
func compareAnchors(f *findings, name string, kn *core.Kernels, x, y word.Word, wantP, wantDP core.Path) {
	for _, c := range []struct {
		alg   string
		route func(x, y word.Word) (core.Anchor, error)
		want  core.Path
	}{{"Algorithm 2", kn.RouteAnchor, wantP}, {"Algorithm 1", kn.RouteAnchorDirected, wantDP}} {
		a, err := c.route(x, y)
		if err != nil {
			f.addf("kernel-anchor", "%s: %s anchor(%v,%v): %v", name, c.alg, x, y, err)
			continue
		}
		// Hops guards the expansion: AppendRoute may panic on an
		// anchor it rejects.
		n, ok := a.Hops(y.Len())
		var got core.Path
		if ok {
			ok = a.Joins(x.Digits(), y.Digits())
			got = core.AppendRoute(nil, y.Digits(), a)
		}
		if !ok || n != len(c.want) || !slices.Equal(got, c.want) {
			f.addf("kernel-anchor", "%s: %s anchor(%v,%v) = %+v (hops %d, ok %v) expands to %v, reference %v", name, c.alg, x, y, a, n, ok, got, c.want)
		}
	}
}

func compareKernel(f *findings, name string, kn *core.Kernels, x, y word.Word, wantU, wantD int, wantP core.Path, wantH core.Hop, wantOK bool) {
	gotU, err := kn.UndirectedDistance(x, y)
	if err != nil || gotU != wantU {
		f.addf("kernel-udist", "%s: D(%v,%v) = %d (err %v), reference %d", name, x, y, gotU, err, wantU)
	}
	gotD, err := kn.DirectedDistance(x, y)
	if err != nil || gotD != wantD {
		f.addf("kernel-ddist", "%s: D→(%v,%v) = %d (err %v), reference %d", name, x, y, gotD, err, wantD)
	}
	gotP, err := kn.RouteUndirected(x, y)
	if err != nil || !slices.Equal(gotP, wantP) {
		f.addf("kernel-route", "%s: route(%v,%v) = %v (err %v), reference %v", name, x, y, gotP, err, wantP)
	}
	gotH, gotOK, err := kn.NextHopUndirected(x, y)
	if err != nil || gotOK != wantOK || gotH != wantH {
		f.addf("kernel-nexthop", "%s: hop(%v,%v) = %v,%v (err %v), reference %v,%v", name, x, y, gotH, gotOK, err, wantH, wantOK)
	}
}
