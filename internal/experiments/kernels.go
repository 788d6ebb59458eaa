package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/word"
)

// KernelRow is one (d,k) point of E25: the measured per-call cost of
// the undirected distance on the scratch kernels versus the tier the
// default engine selects, and the resulting speedup.
type KernelRow struct {
	D, K      int
	Tier      string  // tier the default-config engine selects
	ScratchNs float64 // scratch-kernel distance, ns/op
	TierNs    float64 // tiered-engine distance, ns/op
	Speedup   float64 // ScratchNs / TierNs
}

// kernelBench times fn over the pair pool until budget elapses and
// returns ns/op. It is a deliberately small harness — E25 reports
// magnitudes (2×, 15×, 300×), not benstat-grade confidence intervals;
// BENCH_core.json carries the gated numbers.
func kernelBench(pairs [][2]word.Word, budget time.Duration, fn func(x, y word.Word) error) (float64, error) {
	// One warm pass so pooled buffers and rank tables are built before
	// the clock starts.
	for _, p := range pairs {
		if err := fn(p[0], p[1]); err != nil {
			return 0, err
		}
	}
	var calls int
	start := time.Now()
	for time.Since(start) < budget {
		for _, p := range pairs {
			if err := fn(p[0], p[1]); err != nil {
				return 0, err
			}
		}
		calls += len(pairs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls), nil
}

// Kernels measures the tier ladder on each graph (E25): scratch
// versus the tier the default engine picks.
func Kernels(dks [][2]int, budget time.Duration, seed int64) ([]KernelRow, error) {
	if budget <= 0 {
		budget = 25 * time.Millisecond
	}
	var rows []KernelRow
	for _, dk := range dks {
		d, k := dk[0], dk[1]
		rng := rand.New(rand.NewSource(seed))
		pairs := make([][2]word.Word, 64)
		for i := range pairs {
			pairs[i] = [2]word.Word{word.Random(d, k, rng), word.Random(d, k, rng)}
		}
		scratch := core.NewKernels(core.KernelConfig{TableBudget: -1, DisablePacked: true})
		tiered := core.NewKernels(core.KernelConfig{SyncTableBuild: true})

		scratchNs, err := kernelBench(pairs, budget, func(x, y word.Word) error {
			_, err := scratch.UndirectedDistance(x, y)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scratch DG(%d,%d): %w", d, k, err)
		}
		tierNs, err := kernelBench(pairs, budget, func(x, y word.Word) error {
			_, err := tiered.UndirectedDistance(x, y)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: tiered DG(%d,%d): %w", d, k, err)
		}

		rows = append(rows, KernelRow{
			D: d, K: k,
			Tier:      tiered.TierFor(d, k).String(),
			ScratchNs: scratchNs,
			TierNs:    tierNs,
			Speedup:   scratchNs / tierNs,
		})
	}
	return rows, nil
}

// KernelsTable renders E25.
func KernelsTable(dks [][2]int, budget time.Duration, seed int64) (*stats.Table, error) {
	rows, err := Kernels(dks, budget, seed)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("d", "k", "tier", "scratch ns/op", "tier ns/op", "speedup")
	for _, r := range rows {
		t.AddRow(r.D, r.K, r.Tier, r.ScratchNs, r.TierNs, r.Speedup)
	}
	return t, nil
}
