package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/word"
)

// Fault-aware routing over arc-disjoint in-arborescences (the
// deterministic circular routing of Chiesa et al., instantiated on
// the undirected de Bruijn graph). For each destination, FaultTrees
// arc-disjoint spanning in-arborescences rooted there are
// precomputed; a message carries only the index of the tree it is
// currently following, walks parent pointers toward the root, and on
// meeting a failed arc rotates deterministically to the next tree
// without moving. Because the trees are arc-disjoint, each failed arc
// blocks at most one tree, so any failure set smaller than the tree
// count leaves every vertex at least one live parent arc and the walk
// provably delivers — with stretch bounded by HopBound (= n·trees,
// since the deterministic walk can never repeat a (vertex, tree)
// state without livelocking, which f < trees failures cannot force).
//
// Failures are directed arcs: on the undirected graph each edge {u,v}
// is the two arcs u→v and v→u, failed independently. A failed vertex
// is modelled as all arcs into it failing.

// ErrFaultRoute is wrapped by all fault-routing errors.
var ErrFaultRoute = errors.New("core: fault routing")

// maxFaultRouteVertices bounds the graphs a FaultRouter will
// materialize: the mode needs the explicit graph plus per-destination
// parent arrays, so it is for fabric-sized DG(d,k), not the huge
// identifier spaces the arithmetic kernels serve.
const maxFaultRouteVertices = 1 << 16

// FaultTrees returns the number of arc-disjoint spanning
// in-arborescences the fault router packs per destination of DG(d,k):
// d for k ≥ 2 (undirected minimum degree 2d-2 ≥ d, so Edmonds'
// theorem applies), d-1 for k = 1 (DG(d,1) = K_d: the root has only
// d-1 incoming arcs). The router tolerates any FaultTrees-1 failed
// arcs with guaranteed delivery.
func FaultTrees(d, k int) int {
	if k == 1 {
		return d - 1
	}
	return d
}

// FaultRouter answers fault-tolerant routing questions for one
// DG(d,k). It is safe for concurrent use; decompositions are built on
// demand and cached in the router's store.
type FaultRouter struct {
	d, k, n int
	trees   int
	g       *graph.Graph
	st      *store[faultKey, any]
}

// faultKey names one entry of a fault-routing store: DG(d,k)'s router
// (root -1) or the arborescence family rooted at root.
type faultKey struct{ d, k, root int }

// faultRouting is the process-wide fault-routing store. It holds one
// router per DG(d,k), charged at its adjacency's bytes, and the
// arborescence families of the roots routed to, ~4·n·trees bytes
// each: too much to precompute for every root of a large graph, so
// families build on demand and evict LRU under the cap. Whatever it
// has no room for is built and returned uncached.
var faultRouting = newStore[faultKey, any](32 << 20)

// FaultRoutingUsage reports the process-wide fault-routing store's
// resident bytes, its byte cap and the builds it has started.
func FaultRoutingUsage() (bytes, capacity, builds int64) { return faultRouting.usage() }

// NewFaultRouter returns the fault router for the undirected DG(d,k):
// one per graph, shared process-wide.
func NewFaultRouter(d, k int) (*FaultRouter, error) {
	return newFaultRouter(faultRouting, d, k)
}

func newFaultRouter(st *store[faultKey, any], d, k int) (*FaultRouter, error) {
	n, err := word.Count(d, k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFaultRoute, err)
	}
	if n > maxFaultRouteVertices {
		return nil, fmt.Errorf("%w: DG(%d,%d) has %d vertices, fault routing supports at most %d", ErrFaultRoute, d, k, n, maxFaultRouteVertices)
	}
	trees := FaultTrees(d, k)
	if trees < 1 {
		return nil, fmt.Errorf("%w: DG(%d,%d) supports no arborescence packing", ErrFaultRoute, d, k)
	}
	build := func(faultKey) (any, error) {
		g, err := graph.DeBruijn(graph.Undirected, d, k)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFaultRoute, err)
		}
		return &FaultRouter{d: d, k: k, n: n, trees: trees, g: g, st: st}, nil
	}
	// graph.DeBruijn's adjacency: n+1 offsets and 2d slots per vertex.
	size := 4 * int64(n+1+2*d*n)
	fr, err := st.get(faultKey{d, k, -1}, size, true, build)
	if err == errNoRoom {
		fr, err = build(faultKey{})
	}
	if err != nil {
		return nil, err
	}
	return fr.(*FaultRouter), nil
}

// Trees returns the number of arc-disjoint arborescences per
// destination; any failure set smaller than this is survivable.
func (fr *FaultRouter) Trees() int { return fr.trees }

// HopBound returns the documented worst-case walk length (and so the
// stretch bound): n·Trees hops, one per (vertex, tree) state.
func (fr *FaultRouter) HopBound() int { return fr.n * fr.trees }

// NumVertices returns the vertex count of the routed graph.
func (fr *FaultRouter) NumVertices() int { return fr.n }

// Graph returns the undirected DG(d,k) the router walks. Callers must
// not modify it.
func (fr *FaultRouter) Graph() *graph.Graph { return fr.g }

// decompSeed fixes the arborescence builder's seed per destination so
// every process derives the identical decomposition — dbcheck
// verdicts stay byte-identical and distributed nodes agree on trees
// without coordination.
func decompSeed(d, k, root int) int64 {
	return int64(d)<<40 ^ int64(k)<<28 ^ int64(root)<<1 ^ 0x5bd1e995
}

// Decomposition returns the arc-disjoint in-arborescences rooted at
// root (parent arrays indexed [tree][vertex], parent[root] = -1),
// building and caching them on first use: however many callers ask at
// once, a root's family builds once. The result is shared and must
// not be modified.
func (fr *FaultRouter) Decomposition(root int) ([][]int32, error) {
	if root < 0 || root >= fr.n {
		return nil, fmt.Errorf("%w: root %d out of range [0,%d)", ErrFaultRoute, root, fr.n)
	}
	build := func(key faultKey) (any, error) {
		trees, err := graph.Arborescences(fr.g, key.root, fr.trees, decompSeed(fr.d, fr.k, key.root))
		if err != nil {
			return nil, fmt.Errorf("%w: root %d: %v", ErrFaultRoute, key.root, err)
		}
		return trees, nil
	}
	key := faultKey{fr.d, fr.k, root}
	trees, err := fr.st.get(key, int64(fr.trees)*int64(fr.n)*4, true, build)
	if err == errNoRoom {
		trees, err = build(key)
	}
	if err != nil {
		return nil, err
	}
	return trees.([][]int32), nil
}

// Walk failure reasons.
const (
	// WalkReasonNoLiveArc: every tree's parent arc at some vertex is
	// failed — only possible when the failure set has ≥ Trees arcs.
	WalkReasonNoLiveArc = "no live parent arc"
	// WalkReasonHopBudget: the walk exceeded HopBound hops — only
	// possible under ≥ Trees failures or failures mutating mid-walk.
	WalkReasonHopBudget = "hop budget exhausted"
)

// FaultWalk is the outcome of one fault-routed delivery attempt.
type FaultWalk struct {
	Delivered bool
	Reason    string // empty when Delivered; a WalkReason* otherwise
	Hops      int    // arcs crossed
	Switches  int    // tree rotations (the O(1) failover events)
	Tree      int    // tree index in effect at the end of the walk
	Verts     []int32
}

// Walk routes from src to dst along the dst-rooted arborescences,
// deterministically rotating to the next tree on each failed arc.
// failed reports whether the directed arc u→v is currently down (nil
// means no failures). The walk starts on tree src mod Trees, crosses
// only live arcs, and either delivers or reports why not; with a
// static failure set smaller than Trees it always delivers within
// HopBound hops.
func (fr *FaultRouter) Walk(src, dst int, failed func(u, v int) bool) (FaultWalk, error) {
	if src < 0 || src >= fr.n || dst < 0 || dst >= fr.n {
		return FaultWalk{}, fmt.Errorf("%w: pair (%d,%d) out of range [0,%d)", ErrFaultRoute, src, dst, fr.n)
	}
	tree := src % fr.trees
	w := FaultWalk{Tree: tree, Verts: []int32{int32(src)}}
	if src == dst {
		w.Delivered = true
		return w, nil
	}
	dec, err := fr.Decomposition(dst)
	if err != nil {
		return FaultWalk{}, err
	}
	bound := fr.HopBound()
	cur := src
	for cur != dst {
		if w.Hops >= bound {
			w.Reason = WalkReasonHopBudget
			w.Tree = tree
			return w, nil
		}
		p := dec[tree][cur]
		for sw := 0; failed != nil && failed(cur, int(p)); {
			if sw++; sw >= fr.trees {
				w.Reason = WalkReasonNoLiveArc
				w.Tree = tree
				return w, nil
			}
			tree = (tree + 1) % fr.trees
			w.Switches++
			p = dec[tree][cur]
		}
		cur = int(p)
		w.Hops++
		w.Verts = append(w.Verts, p)
	}
	w.Delivered = true
	w.Tree = tree
	return w, nil
}

// DetourPath routes from src to dst under the failure predicate and
// returns the surviving route as a concrete hop path (the wire shape
// the serve detour rung and the network engine replay). The walk is
// returned alongside so callers can read stretch and switch counts;
// when it did not deliver, the path is nil.
func (fr *FaultRouter) DetourPath(src, dst word.Word, failed func(u, v int) bool) (Path, FaultWalk, error) {
	if src.Base() != fr.d || dst.Base() != fr.d || src.Len() != fr.k || dst.Len() != fr.k {
		return nil, FaultWalk{}, fmt.Errorf("%w: words %v,%v do not fit DG(%d,%d)", ErrFaultRoute, src, dst, fr.d, fr.k)
	}
	s, err := src.Rank()
	if err != nil {
		return nil, FaultWalk{}, fmt.Errorf("%w: %v", ErrFaultRoute, err)
	}
	t, err := dst.Rank()
	if err != nil {
		return nil, FaultWalk{}, fmt.Errorf("%w: %v", ErrFaultRoute, err)
	}
	w, err := fr.Walk(int(s), int(t), failed)
	if err != nil || !w.Delivered {
		return nil, w, err
	}
	p := make(Path, 0, w.Hops)
	hi := fr.n / fr.d
	for i := 1; i < len(w.Verts); i++ {
		u, v := int(w.Verts[i-1]), int(w.Verts[i])
		// Rank arithmetic of the two shifts (see check.replayConcrete):
		// a left shift appending b maps u to (u·d mod n) + b, a right
		// shift prepending b maps u to b·(n/d) + ⌊u/d⌋.
		if b := v % fr.d; (u*fr.d)%fr.n+b == v {
			p = append(p, L(byte(b)))
			continue
		}
		if b := v / hi; b*hi+u/fr.d == v {
			p = append(p, R(byte(b)))
			continue
		}
		return nil, w, fmt.Errorf("%w: walk crossed %d→%d, not a shift arc", ErrFaultRoute, u, v)
	}
	return p, w, nil
}
