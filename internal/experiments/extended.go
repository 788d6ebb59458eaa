package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/word"
)

// Extended experiments beyond the paper's own artefacts: they quantify
// the §1 claims the paper makes by citation (near-optimal diameter via
// Imase–Itoh; versatility) and system-level properties of the
// simulator (broadcast cost, route diversity).

// OptimalityRow compares DG(d,k) against the Moore bound (E10).
type OptimalityRow struct {
	D, K       int
	N          int64
	Degree     int
	Diameter   int
	MooreDiam  int     // smallest diameter any degree-2d graph of N vertices could have
	Efficiency float64 // MooreDiam / Diameter (1 = optimal)
}

// Optimality quantifies the near-minimal diameter claim of §1.
func Optimality(dks [][2]int) ([]OptimalityRow, error) {
	var rows []OptimalityRow
	for _, dk := range dks {
		d, k := dk[0], dk[1]
		n, err := word.Count(d, k)
		if err != nil {
			return nil, err
		}
		moore := graph.MinDiameterFor(int64(n), 2*d)
		rows = append(rows, OptimalityRow{
			D: d, K: k, N: int64(n), Degree: 2 * d,
			Diameter:   k,
			MooreDiam:  moore,
			Efficiency: float64(moore) / float64(k),
		})
	}
	return rows, nil
}

// OptimalityTable renders E10.
func OptimalityTable(dks [][2]int) (*stats.Table, error) {
	rows, err := Optimality(dks)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("d", "k", "N", "degree", "diameter", "moore-min", "efficiency")
	for _, r := range rows {
		t.AddRow(r.D, r.K, r.N, r.Degree, r.Diameter, r.MooreDiam, r.Efficiency)
	}
	return t, nil
}

// BroadcastRow compares dissemination strategies on DN(d,k) (E11).
type BroadcastRow struct {
	D, K          int
	FloodMessages int
	FloodRounds   int
	TreeMessages  int
	TreeRounds    int
}

// Broadcast measures flooding vs spanning-tree broadcast from the
// all-zero site.
func Broadcast(dks [][2]int) ([]BroadcastRow, error) {
	var rows []BroadcastRow
	for _, dk := range dks {
		d, k := dk[0], dk[1]
		src, err := word.Zeros(d, k)
		if err != nil {
			return nil, err
		}
		n, err := network.New(network.Config{D: d, K: k})
		if err != nil {
			return nil, err
		}
		flood, err := n.FloodBroadcast(src)
		if err != nil {
			return nil, err
		}
		tree, err := n.TreeBroadcast(src)
		if err != nil {
			return nil, err
		}
		if flood.Reached != tree.Reached {
			return nil, fmt.Errorf("experiments: flood reached %d, tree %d", flood.Reached, tree.Reached)
		}
		rows = append(rows, BroadcastRow{
			D: d, K: k,
			FloodMessages: flood.Messages, FloodRounds: flood.Rounds,
			TreeMessages: tree.Messages, TreeRounds: tree.Rounds,
		})
	}
	return rows, nil
}

// BroadcastTable renders E11.
func BroadcastTable(dks [][2]int) (*stats.Table, error) {
	rows, err := Broadcast(dks)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("d", "k", "flood msgs", "flood rounds", "tree msgs", "tree rounds")
	for _, r := range rows {
		t.AddRow(r.D, r.K, r.FloodMessages, r.FloodRounds, r.TreeMessages, r.TreeRounds)
	}
	return t, nil
}

// DiversityRow summarizes shortest-path multiplicity in DG(d,k) (E12):
// the structural room the wildcard policies exploit.
type DiversityRow struct {
	D, K          int
	MeanPaths     float64 // mean number of shortest paths per ordered pair
	MaxPaths      int64
	MultiFraction float64 // fraction of pairs with ≥ 2 shortest paths
}

// Diversity measures shortest-path counts over all ordered pairs of
// the undirected DG(d,k).
func Diversity(dks [][2]int) ([]DiversityRow, error) {
	var rows []DiversityRow
	for _, dk := range dks {
		d, k := dk[0], dk[1]
		g, err := graph.DeBruijn(graph.Undirected, d, k)
		if err != nil {
			return nil, err
		}
		var acc stats.Accumulator
		var maxPaths int64
		multi := 0
		pairs := 0
		for src := 0; src < g.NumVertices(); src++ {
			counts, _, err := g.CountShortestPathsFrom(src)
			if err != nil {
				return nil, err
			}
			for dst, c := range counts {
				if dst == src {
					continue
				}
				pairs++
				acc.Add(float64(c))
				if c > maxPaths {
					maxPaths = c
				}
				if c >= 2 {
					multi++
				}
			}
		}
		rows = append(rows, DiversityRow{
			D: d, K: k,
			MeanPaths:     acc.Mean(),
			MaxPaths:      maxPaths,
			MultiFraction: float64(multi) / float64(pairs),
		})
	}
	return rows, nil
}

// DiversityTable renders E12.
func DiversityTable(dks [][2]int) (*stats.Table, error) {
	rows, err := Diversity(dks)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("d", "k", "mean paths", "max paths", "multi-path fraction")
	for _, r := range rows {
		t.AddRow(r.D, r.K, r.MeanPaths, r.MaxPaths, r.MultiFraction)
	}
	return t, nil
}
