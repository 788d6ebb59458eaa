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
// Theorem 2's quadratic sweep and Algorithm 2's path. Three engines
// are checked: the scratch-forced engine (T3, the suffix-tree walk), the packed
// engine (T2 where the alphabet packs), and the table-admitting
// engine (T1 where the pair matrix fits the default budget, built
// synchronously). Every directed distance, undirected distance,
// canonical route (hop for hop) and next hop is compared, and on
// exhaustively swept graphs every distance column (DistanceColumn
// toward each destination, both orientations). Sampled graphs mix
// uniform pairs with a structured family (structuredPair) that
// reaches equal-distance anchor ties. The ladder's contract is exact
// equality, not mere optimality: tier selection must be semantically
// invisible.
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
		{"scratch", core.NewKernels(core.KernelConfig{TableBudget: -1, DisablePacked: true})},
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
		var wantH core.Hop
		wantOK := len(wantP) > 0
		if wantOK {
			wantH = wantP[0]
		}
		for _, e := range engines {
			compareKernel(f, e.name, e.kn, x, y, wantU, wantD, wantP, wantH, wantOK)
		}
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
// k and often has several minimizers: y is x shifted by a few digits
// with a fresh fill, or x and y share one short period at an offset.
// Uniform pairs over a large alphabet almost never tie, so without
// this family the sampled graphs would not reach the tie-break
// between equal-distance anchors.
func structuredPair(d, k int, rng *rand.Rand) [2]word.Word {
	x, y := make([]byte, k), make([]byte, k)
	if rng.Intn(2) == 0 {
		for i := range x {
			x[i], y[i] = byte(rng.Intn(d)), byte(rng.Intn(d))
		}
		s := 1 + rng.Intn(max(1, k/4))
		if rng.Intn(2) == 0 {
			copy(y, x[s:])
		} else {
			copy(y[s:], x)
		}
	} else {
		block := make([]byte, 1+rng.Intn(4))
		for i := range block {
			block[i] = byte(rng.Intn(min(d, 2)))
		}
		r := 1 + rng.Intn(len(block))
		for i := range x {
			x[i], y[i] = block[i%len(block)], block[(i+r)%len(block)]
		}
		y[rng.Intn(k)] = byte(rng.Intn(d))
	}
	return [2]word.Word{word.MustNew(d, x), word.MustNew(d, y)}
}

// compareColumns checks kn.DistanceColumn toward every destination,
// undirected and directed, against the row-major reference matrices.
func compareColumns(f *findings, name string, kn *core.Kernels, words []word.Word, refU, refD []int32) {
	n := len(words)
	col := make([]int32, n)
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
				if want := c.ref[v*n+j]; got != want {
					f.addf(c.oracle, "%s: column toward %v: D(%v) = %d, reference %d", name, y, words[v], got, want)
				}
			}
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
