package check

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// FaultRoutesOptions parameterizes the fault-routing oracle.
type FaultRoutesOptions struct {
	// Seed drives root, source and failure-set sampling. The whole
	// sweep is a pure function of (d, k, options): the arborescence
	// decompositions themselves are seeded per destination by the
	// router, so verdicts are byte-identical across processes.
	Seed int64
	// Roots is the number of destinations checked when the graph has
	// more than RootsAbove vertices (below that, every destination is
	// checked). 0 means 8.
	Roots int
	// RootsAbove is the exhaustive-roots threshold. 0 means 64.
	RootsAbove int
	// SetsPerSize is the number of random failure sets drawn per
	// failure size ≥ 1 (size 0 needs only one). 0 means 2.
	SetsPerSize int
	// Sources is the number of sources walked per (root, failure set)
	// when the graph has more than SourcesAbove vertices. 0 means 24.
	Sources int
	// SourcesAbove is the exhaustive-sources threshold. 0 means 64.
	SourcesAbove int
	// MaxFindings caps the findings per report. 0 means 32.
	MaxFindings int
}

func (o *FaultRoutesOptions) defaults() {
	if o.Roots == 0 {
		o.Roots = 8
	}
	if o.RootsAbove == 0 {
		o.RootsAbove = 64
	}
	if o.SetsPerSize == 0 {
		o.SetsPerSize = 2
	}
	if o.Sources == 0 {
		o.Sources = 24
	}
	if o.SourcesAbove == 0 {
		o.SourcesAbove = 64
	}
}

// FaultRoutes runs the fault-routing oracle on the undirected DG(d,k).
// For each checked destination it independently re-validates the
// arborescence decomposition (spanning, cycle-free, arc-disjoint,
// rooted), then for every failure size f < Trees draws random sets of
// f failed directed arcs and walks sources to the destination,
// asserting the paper-level contract against BFS on the faulted graph:
//
//   - a delivered walk replays hop by hop over real, live arcs, ends
//     at the destination, and uses at most HopBound = n·Trees hops
//     (the documented stretch bound) — and never fewer hops than the
//     faulted shortest path;
//
//   - any pair still connected in the faulted graph IS delivered —
//     with f < Trees arc failures the arc-disjoint family guarantees
//     a live parent arc everywhere, so non-delivery of a reachable
//     pair is a routing bug, not bad luck;
//
//   - a non-delivered pair must be unreachable, and the walk must say
//     why with one of the documented reasons.
func FaultRoutes(d, k int, opt FaultRoutesOptions) (Report, error) {
	opt.defaults()
	rep := Report{Mode: "faultroutes", D: d, K: k}
	fr, err := core.NewFaultRouter(d, k)
	if err != nil {
		return rep, fmt.Errorf("check: %w", err)
	}
	g, n, trees := fr.Graph(), fr.NumVertices(), fr.Trees()
	f := newFindings(opt.MaxFindings)
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5DEECE66D))

	roots := make([]int, 0, opt.Roots)
	if n <= opt.RootsAbove {
		for r := 0; r < n; r++ {
			roots = append(roots, r)
		}
	} else {
		rep.Sampled = true
		seen := make(map[int]bool, opt.Roots)
		for len(roots) < opt.Roots && len(roots) < n {
			r := rng.Intn(n)
			if !seen[r] {
				seen[r] = true
				roots = append(roots, r)
			}
		}
	}

	for _, root := range roots {
		if f.full() {
			break
		}
		dec, err := fr.Decomposition(root)
		if err != nil {
			return rep, fmt.Errorf("check: %w", err)
		}
		if err := graph.ValidateArborescences(g, root, dec); err != nil {
			f.addf("fault-decomposition", "DG(%d,%d) root %d: %v", d, k, root, err)
			continue
		}
		rep.Checked++ // one validated decomposition

		for size := 0; size < trees && !f.full(); size++ {
			sets := opt.SetsPerSize
			if size == 0 {
				sets = 1
			}
			for set := 0; set < sets && !f.full(); set++ {
				failed := g.SampleArcs(size, rng)
				failedFn := func(u, v int) bool { return failed[[2]int{u, v}] }
				dist, err := g.BFSToAvoidingArcs(root, failedFn)
				if err != nil {
					return rep, fmt.Errorf("check: %w", err)
				}
				sources := sourceSet(n, opt, rng)
				for _, src := range sources {
					if f.full() {
						break
					}
					checkFaultWalk(f, fr, g, d, k, root, src, size, failed, failedFn, dist)
					rep.Checked++
				}
			}
		}
	}
	rep.Findings = f.result()
	rep.Truncated = f.full()
	return rep, nil
}

// checkFaultWalk runs one (src → root, failure set) probe.
func checkFaultWalk(f *findings, fr *core.FaultRouter, g *graph.Graph, d, k, root, src, size int, failed map[[2]int]bool, failedFn func(u, v int) bool, dist []int) {
	w, err := fr.Walk(src, root, failedFn)
	if err != nil {
		f.addf("error", "%v", err)
		return
	}
	reachable := dist[src] >= 0
	if !w.Delivered {
		if reachable {
			f.addf("fault-delivery",
				"DG(%d,%d) %d→%d under %d failed arcs %v: not delivered (%q) but faulted-BFS distance is %d",
				d, k, src, root, size, arcList(failed), w.Reason, dist[src])
			return
		}
		if w.Reason != core.WalkReasonNoLiveArc && w.Reason != core.WalkReasonHopBudget {
			f.addf("fault-drop-reason",
				"DG(%d,%d) %d→%d under %d failed arcs: undocumented drop reason %q", d, k, src, root, size, w.Reason)
		}
		return
	}
	if !reachable {
		f.addf("fault-phantom-delivery",
			"DG(%d,%d) %d→%d under %d failed arcs %v: delivered in %d hops but faulted-BFS says unreachable",
			d, k, src, root, size, arcList(failed), w.Hops)
		return
	}
	// Replay: the walk's vertex trace must start at src, end at root,
	// cross only live real links, and respect the documented bounds.
	if len(w.Verts) != w.Hops+1 || int(w.Verts[0]) != src || int(w.Verts[len(w.Verts)-1]) != root {
		f.addf("fault-replay",
			"DG(%d,%d) %d→%d: walk trace %v inconsistent with %d hops", d, k, src, root, w.Verts, w.Hops)
		return
	}
	for i := 1; i < len(w.Verts); i++ {
		u, v := int(w.Verts[i-1]), int(w.Verts[i])
		if !g.HasEdge(u, v) {
			f.addf("fault-replay",
				"DG(%d,%d) %d→%d: hop %d crosses %d→%d, not a link", d, k, src, root, i-1, u, v)
			return
		}
		if failedFn(u, v) {
			f.addf("fault-replay",
				"DG(%d,%d) %d→%d: hop %d crosses failed arc %d→%d", d, k, src, root, i-1, u, v)
			return
		}
	}
	if w.Hops > fr.HopBound() {
		f.addf("fault-stretch",
			"DG(%d,%d) %d→%d under %d failed arcs: %d hops exceeds bound %d", d, k, src, root, size, w.Hops, fr.HopBound())
	}
	if w.Hops < dist[src] {
		f.addf("fault-stretch",
			"DG(%d,%d) %d→%d: walk took %d hops, below the faulted shortest path %d (broken replay)",
			d, k, src, root, w.Hops, dist[src])
	}
}

// sourceSet picks the walked sources: exhaustive on small graphs,
// seeded distinct sample above the threshold.
func sourceSet(n int, opt FaultRoutesOptions, rng *rand.Rand) []int {
	if n <= opt.SourcesAbove {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, opt.Sources)
	seen := make(map[int]bool, opt.Sources)
	for len(out) < opt.Sources {
		s := rng.Intn(n)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// arcList renders a failure set deterministically (insertion order is
// lost in the map, so sort by the packed arc id).
func arcList(failed map[[2]int]bool) [][2]int {
	out := make([][2]int, 0, len(failed))
	for a := range failed {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j][0] < out[j-1][0] || (out[j][0] == out[j-1][0] && out[j][1] < out[j-1][1])); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
