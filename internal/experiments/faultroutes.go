package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/stats"
)

// E26 — fault routing: arc-disjoint arborescence failover vs the
// offline reroute baselines. E17 (RerouteStretch) prices failures by
// *recomputing* shortest paths on the faulted graph; E26 prices the
// online alternative that recomputes nothing: walk the precomputed
// destination arborescences and rotate structure on each failed arc,
// carrying one integer of failover state. The sweep reports, per
// failure count f < Trees, the delivery rate (the contract says 1.0),
// the walk's stretch over the clean shortest path, the number of
// structure switches actually performed, and the stretch an optimal
// recompute would have paid on the same faulted graph — the gap
// between the last two columns is the price of O(1) failover.

// FaultRouteRow is one failure-count cell of the E26 sweep.
type FaultRouteRow struct {
	D, K         int
	Failures     int // failed directed arcs per trial
	Pairs        int // delivery attempts measured
	Delivered    int
	DeliveryRate float64
	// MeanStretch/MaxStretch are walk hops over the clean (unfaulted)
	// shortest path, the same normalization E17 uses.
	MeanStretch float64
	MaxStretch  float64
	// MeanSwitches counts the O(1) failover events per delivery.
	MeanSwitches float64
	// BaselineStretch is the faulted-BFS shortest path over the clean
	// one: what full recomputation would pay on the same failures.
	BaselineStretch float64
}

// FaultRouteSweep measures DG(d,k) for every failure size below the
// arborescence count, drawing `sets` random arc-failure sets per size
// and walking `pairs` source→destination attempts per set.
func FaultRouteSweep(d, k, sets, pairs int, seed int64) ([]FaultRouteRow, error) {
	if sets < 1 || pairs < 1 {
		return nil, fmt.Errorf("experiments: fault route sweep needs sets ≥ 1 and pairs ≥ 1")
	}
	fr, err := core.NewFaultRouter(d, k)
	if err != nil {
		return nil, err
	}
	g, n := fr.Graph(), fr.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	rows := make([]FaultRouteRow, 0, fr.Trees())
	for f := 0; f < fr.Trees(); f++ {
		row := FaultRouteRow{D: d, K: k, Failures: f}
		var stretch, switches, baseline stats.Accumulator
		for set := 0; set < sets; set++ {
			failed := make(map[[2]int]bool, f)
			for len(failed) < f {
				u := rng.Intn(n)
				nbs := g.OutNeighbors(u)
				if len(nbs) == 0 {
					continue
				}
				failed[[2]int{u, int(nbs[rng.Intn(len(nbs))])}] = true
			}
			failedFn := func(u, v int) bool { return failed[[2]int{u, v}] }
			dst := rng.Intn(n)
			clean, err := g.BFSFrom(dst) // undirected: row doubles as distance-to-dst
			if err != nil {
				return nil, err
			}
			faulted, err := g.BFSToAvoidingArcs(dst, failedFn)
			if err != nil {
				return nil, err
			}
			for p := 0; p < pairs; p++ {
				src := rng.Intn(n)
				if src == dst || clean[src] <= 0 {
					continue
				}
				w, err := fr.Walk(src, dst, failedFn)
				if err != nil {
					return nil, err
				}
				row.Pairs++
				if !w.Delivered {
					continue
				}
				row.Delivered++
				stretch.Add(float64(w.Hops) / float64(clean[src]))
				switches.Add(float64(w.Switches))
				if faulted[src] > 0 {
					baseline.Add(float64(faulted[src]) / float64(clean[src]))
				}
			}
		}
		if row.Pairs > 0 {
			row.DeliveryRate = float64(row.Delivered) / float64(row.Pairs)
		}
		row.MeanStretch = stretch.Mean()
		row.MaxStretch = stretch.Max()
		row.MeanSwitches = switches.Mean()
		row.BaselineStretch = baseline.Mean()
		rows = append(rows, row)
	}
	return rows, nil
}

// FaultRoutesTable renders E26 across the given graphs.
func FaultRoutesTable(dks [][2]int, sets, pairs int, seed int64) (*stats.Table, error) {
	t := stats.NewTable("d", "k", "failures", "pairs", "delivered", "meanStretch", "maxStretch", "switches", "bfsStretch")
	for _, dk := range dks {
		rows, err := FaultRouteSweep(dk[0], dk[1], sets, pairs, seed)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.AddRow(r.D, r.K, r.Failures, r.Pairs, fmt.Sprintf("%.3f", r.DeliveryRate),
				fmt.Sprintf("%.3f", r.MeanStretch), fmt.Sprintf("%.2f", r.MaxStretch),
				fmt.Sprintf("%.2f", r.MeanSwitches), fmt.Sprintf("%.3f", r.BaselineStretch))
		}
	}
	return t, nil
}
