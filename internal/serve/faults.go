package serve

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// FaultSet is the server's shared view of failed links, feeding the
// LevelDetour degrade rung: detour answers route around every link in
// the set along the destination's arc-disjoint arborescences. Safe
// for concurrent use — operators mutate it (FailLink/RepairLink)
// while worker shards read it on every detour answer.
//
// Links fail as undirected cables (both directed arcs at once),
// keyed by the (d,k) they belong to so one set serves a server
// answering queries for many networks.
type FaultSet struct {
	mu sync.RWMutex
	m  map[faultArc]struct{}
}

type faultArc struct {
	d, k int
	u, v int32
}

// NewFaultSet returns an empty failed-link set.
func NewFaultSet() *FaultSet {
	return &FaultSet{m: make(map[faultArc]struct{})}
}

// FailLink marks the link {u,v} of u's network as failed in both
// directions. The words must address the same DG(d,k); adjacency is
// not checked here (the detour walk simply never uses non-arcs).
func (f *FaultSet) FailLink(u, v word.Word) error {
	a, b, err := faultArcs(u, v)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.m[a] = struct{}{}
	f.m[b] = struct{}{}
	f.mu.Unlock()
	return nil
}

// RepairLink clears a link failure in both directions.
func (f *FaultSet) RepairLink(u, v word.Word) error {
	a, b, err := faultArcs(u, v)
	if err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.m, a)
	delete(f.m, b)
	f.mu.Unlock()
	return nil
}

// Len returns the number of failed directed arcs (two per link).
func (f *FaultSet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.m)
}

func faultArcs(u, v word.Word) (faultArc, faultArc, error) {
	if u.IsZero() || v.IsZero() || u.Base() != v.Base() || u.Len() != v.Len() {
		return faultArc{}, faultArc{}, fmt.Errorf("%w: link endpoints %v and %v are not one network", ErrBadQuery, u, v)
	}
	d, k := u.Base(), u.Len()
	uv := int32(graph.DeBruijnVertex(u))
	vv := int32(graph.DeBruijnVertex(v))
	return faultArc{d, k, uv, vv}, faultArc{d, k, vv, uv}, nil
}

// failed reports whether the arc u→v of DG(d,k) is down.
func (f *FaultSet) failed(d, k int, u, v int) bool {
	f.mu.RLock()
	_, down := f.m[faultArc{d, k, int32(u), int32(v)}]
	f.mu.RUnlock()
	return down
}

// SetFaults points the engine's LevelDetour rung at a (shared) failed
// link set. A nil set is valid: detours then follow the current
// arborescence with no switching.
func (e *Engine) SetFaults(f *FaultSet) { e.faults = f }

// Faults returns the engine's failed-link set (nil when unset).
func (e *Engine) Faults() *FaultSet { return e.faults }

// detour answers an undirected route query with the fault-avoiding
// arborescence path. ok is false when the network is too large for
// fault routing or the walk could not deliver under the current
// failure set (the caller then degrades to distance-only).
func (e *Engine) detour(q Query) (core.Path, bool) {
	d, k := q.Src.Base(), q.Src.Len()
	fr, err := core.NewFaultRouter(d, k)
	if err != nil {
		return nil, false
	}
	var failed func(u, v int) bool
	if e.faults != nil {
		failed = func(u, v int) bool { return e.faults.failed(d, k, u, v) }
	}
	p, w, err := fr.DetourPath(q.Src, q.Dst, failed)
	if err != nil || !w.Delivered {
		return nil, false
	}
	return p, true
}
