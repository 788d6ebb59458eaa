// Package fault implements the fault-tolerance experiments behind the
// paper's Section 1 claim (via Pradhan–Reddy [8]) that de Bruijn
// networks tolerate up to d-1 processor failures: every failure set of
// size < d leaves the surviving network connected, so messages can
// still be routed — at some stretch — around the failed sites.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Fault metric names (README.md § Observability).
const (
	metricSetsExamined  = "dn_fault_sets_examined_total"
	metricDisconnecting = "dn_fault_disconnecting_sets_total"
	metricStretchPairs  = "dn_fault_stretch_pairs_total"
	metricDisconnected  = "dn_fault_disconnected_pairs_total"
)

// observer is the package-wide registry: the tolerance checks are
// free functions over graphs, so the hook is package level rather
// than per-object. Atomic so concurrent sweeps may run while tests
// attach their own registry.
var observer atomic.Pointer[obs.Registry]

// SetObserver attaches a metrics registry counting failure-set
// examinations, disconnecting sets found, and reroute-stretch pair
// outcomes. Pass nil to detach.
func SetObserver(reg *obs.Registry) { observer.Store(reg) }

func obsReg() *obs.Registry { return observer.Load() }

// ErrTooManySets is returned when exhaustive enumeration of failure
// sets would exceed the configured budget.
var ErrTooManySets = errors.New("fault: too many failure sets")

// Report summarizes a tolerance check.
type Report struct {
	Failures  int  // size of each failure set tried
	Sets      int  // number of failure sets examined
	Tolerated bool // true when every examined set left the graph connected
	// CounterExample holds a disconnecting failure set when
	// Tolerated is false.
	CounterExample []int
}

// maxExhaustiveSets caps the work of ExhaustiveTolerance.
const maxExhaustiveSets = 2_000_000

// ExhaustiveTolerance checks every failure set of exactly f vertices:
// the graph must stay (strongly) connected after their removal.
func ExhaustiveTolerance(g *graph.Graph, f int) (Report, error) {
	n := g.NumVertices()
	if f < 0 || f >= n {
		return Report{}, fmt.Errorf("fault: failure count %d out of range [0,%d)", f, n)
	}
	total := binomial(n, f)
	if total < 0 || total > maxExhaustiveSets {
		return Report{}, fmt.Errorf("%w: C(%d,%d)", ErrTooManySets, n, f)
	}
	reg := obsReg()
	rep := Report{Failures: f, Tolerated: true}
	set := make([]int, f)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == f {
			rep.Sets++
			reg.Counter(metricSetsExamined).Inc()
			blocked := make(map[int]bool, f)
			for _, v := range set {
				blocked[v] = true
			}
			if !g.IsConnectedAvoiding(blocked) {
				rep.Tolerated = false
				rep.CounterExample = append([]int(nil), set...)
				reg.Counter(metricDisconnecting).Inc()
				return false
			}
			return true
		}
		for v := start; v < n; v++ {
			set[idx] = v
			if !rec(v+1, idx+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
	return rep, nil
}

// MinVertexConnectivity returns the minimum over sampled vertex pairs
// of the number of vertex-disjoint paths — a Menger upper bound on the
// failures needed to disconnect the graph. With pairs ≤ 0 every
// ordered pair is examined.
func MinVertexConnectivity(g *graph.Graph, pairs int, seed int64) (int, error) {
	n := g.NumVertices()
	if n < 2 {
		return 0, errors.New("fault: connectivity needs at least two vertices")
	}
	best := n
	if pairs <= 0 {
		for s := 0; s < n; s++ {
			for t := 0; t < n; t++ {
				if s == t {
					continue
				}
				k, err := g.VertexDisjointPaths(s, t)
				if err != nil {
					return 0, err
				}
				if k < best {
					best = k
				}
			}
		}
		return best, nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < pairs; i++ {
		s := rng.Intn(n)
		t := rng.Intn(n)
		if s == t {
			continue
		}
		k, err := g.VertexDisjointPaths(s, t)
		if err != nil {
			return 0, err
		}
		if k < best {
			best = k
		}
	}
	return best, nil
}

// StretchResult reports rerouting cost under failures.
type StretchResult struct {
	Pairs         int     // pairs measured (reachable, distinct, alive)
	Disconnected  int     // pairs that became unreachable
	MeanStretch   float64 // mean of (faulty distance) / (fault-free distance)
	MaxStretch    float64
	MeanExtraHops float64 // mean additive detour
}

// RerouteStretch measures how much longer shortest routes become when
// the vertices in failed are removed, over `pairs` random ordered
// pairs of surviving vertices.
func RerouteStretch(g *graph.Graph, failed []int, pairs int, seed int64) (StretchResult, error) {
	if pairs < 1 {
		return StretchResult{}, fmt.Errorf("fault: need at least one pair, got %d", pairs)
	}
	n := g.NumVertices()
	blocked := make(map[int]bool, len(failed))
	for _, v := range failed {
		if v < 0 || v >= n {
			return StretchResult{}, fmt.Errorf("fault: failed vertex %d out of range", v)
		}
		blocked[v] = true
	}
	if len(blocked) >= n {
		return StretchResult{}, errors.New("fault: all vertices failed")
	}
	rng := rand.New(rand.NewSource(seed))
	var res StretchResult
	var stretch, extra stats.Accumulator
	for res.Pairs+res.Disconnected < pairs {
		s := rng.Intn(n)
		t := rng.Intn(n)
		if s == t || blocked[s] || blocked[t] {
			continue
		}
		base, err := g.BFSFrom(s)
		if err != nil {
			return StretchResult{}, err
		}
		if base[t] <= 0 {
			continue // unreachable even without failures, or s == t
		}
		avoid, err := g.BFSFromAvoiding(s, blocked)
		if err != nil {
			return StretchResult{}, err
		}
		if avoid[t] < 0 {
			res.Disconnected++
			obsReg().Counter(metricDisconnected).Inc()
			continue
		}
		res.Pairs++
		obsReg().Counter(metricStretchPairs).Inc()
		stretch.Add(float64(avoid[t]) / float64(base[t]))
		extra.Add(float64(avoid[t] - base[t]))
	}
	res.MeanStretch = stretch.Mean()
	res.MaxStretch = stretch.Max()
	res.MeanExtraHops = extra.Mean()
	return res, nil
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
		if res > maxExhaustiveSets*4 {
			return -1 // overflow guard; caller treats as too many
		}
	}
	return res
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	return out
}
