// Package dht implements a Koorde-style distributed hash table on the
// de Bruijn graph — the modern setting in which the paper's routing
// survives. Identifiers are d-ary words of length k (the vertices of
// DG(d,k)); only a sparse subset of identifiers host real nodes. Each
// node keeps two pointers — its ring successor and its de Bruijn
// finger, the node preceding its type-L image m⁻(0) — and lookups walk
// *imaginary* de Bruijn hops: the current real node simulates the
// shift-register move of an imaginary identifier it stands in for,
// injecting one digit of the key per de Bruijn hop (exactly the
// paper's Algorithm 1 path y_{l+1}…y_k, executed over a sparse ring).
//
// With N real nodes this resolves lookups in O(k + N-segment walks)
// hops — O(log_d(ID space) + log N) expected for random node sets —
// using constant state per node, against the O(N)-entry tables a
// naive DHT would need. (Koorde: Kaashoek & Karger, IPTPS 2003; the
// imaginary-node trick is their contribution, the routing is the
// paper's.)
package dht

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/word"
)

// DHT metric names (README.md § Observability).
const (
	metricLookups       = "dn_dht_lookups_total"
	metricLookupHops    = "dn_dht_lookup_hops"
	metricDeBruijnHops  = "dn_dht_debruijn_hops_total"
	metricSuccessorHops = "dn_dht_successor_hops_total"
	metricTimeouts      = "dn_dht_lookup_timeouts_total"
)

// ringMetrics are pre-resolved instrument handles; all nil when
// observation is off.
type ringMetrics struct {
	lookups, debruijnHops, successorHops, timeouts *obs.Counter
	lookupHops                                     *obs.Histogram
}

// Node is one DHT participant.
type Node struct {
	id   word.Word
	rank uint64
	// successor is the next real node clockwise on the identifier
	// ring.
	successor *Node
	// finger is the real node preceding id⁻(0), the start of this
	// node's de Bruijn image block.
	finger *Node
}

// ID returns the node's identifier.
func (n *Node) ID() word.Word { return n.id }

// Successor returns the clockwise neighbor.
func (n *Node) Successor() *Node { return n.successor }

// Finger returns the de Bruijn finger.
func (n *Node) Finger() *Node { return n.finger }

// Ring is a static Koorde ring over DG(d,k) identifiers.
type Ring struct {
	d, k  int
	nodes []*Node // sorted by rank
	m     ringMetrics
}

// SetObserver attaches a metrics registry: lookup counts and hop
// histograms, de Bruijn vs successor hop split and convergence-guard
// timeouts land in it. A nil registry detaches.
func (r *Ring) SetObserver(reg *obs.Registry) {
	if reg == nil {
		r.m = ringMetrics{}
		return
	}
	r.m = ringMetrics{
		lookups:       reg.Counter(metricLookups),
		debruijnHops:  reg.Counter(metricDeBruijnHops),
		successorHops: reg.Counter(metricSuccessorHops),
		timeouts:      reg.Counter(metricTimeouts),
		lookupHops:    reg.Histogram(metricLookupHops, obs.HopBuckets),
	}
}

// Errors returned by the ring.
var (
	ErrNoNodes = errors.New("dht: ring needs at least one node")
	ErrBadID   = errors.New("dht: identifier does not match the ring")
)

// NewRing builds a ring from the given node identifiers (duplicates
// are merged). All identifiers must be d-ary words of length k.
func NewRing(d, k int, ids []word.Word) (*Ring, error) {
	if len(ids) == 0 {
		return nil, ErrNoNodes
	}
	if _, err := word.Count(d, k); err != nil {
		return nil, err
	}
	seen := make(map[uint64]bool, len(ids))
	r := &Ring{d: d, k: k}
	for _, id := range ids {
		if id.Base() != d || id.Len() != k {
			return nil, fmt.Errorf("%w: %v for DG(%d,%d)", ErrBadID, id, d, k)
		}
		rank := id.MustRank()
		if seen[rank] {
			continue
		}
		seen[rank] = true
		r.nodes = append(r.nodes, &Node{id: id, rank: rank})
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].rank < r.nodes[j].rank })
	for i, n := range r.nodes {
		n.successor = r.nodes[(i+1)%len(r.nodes)]
		n.finger = r.predecessorOfRank(n.id.ShiftLeft(0).MustRank())
	}
	return r, nil
}

// NumNodes returns the number of real nodes.
func (r *Ring) NumNodes() int { return len(r.nodes) }

// Nodes returns the nodes in ring order.
func (r *Ring) Nodes() []*Node {
	out := make([]*Node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// predecessorOfRank returns the last node with rank ≤ target, wrapping
// to the highest-ranked node below the ring's smallest identifier.
func (r *Ring) predecessorOfRank(target uint64) *Node {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].rank > target })
	if i == 0 {
		return r.nodes[len(r.nodes)-1]
	}
	return r.nodes[i-1]
}

// Owner returns the node responsible for key: the successor of key on
// the ring (ground truth for Lookup).
func (r *Ring) Owner(key word.Word) (*Node, error) {
	if key.Base() != r.d || key.Len() != r.k {
		return nil, fmt.Errorf("%w: %v", ErrBadID, key)
	}
	target := key.MustRank()
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].rank >= target })
	if i == len(r.nodes) {
		return r.nodes[0], nil
	}
	return r.nodes[i], nil
}

// NodeAt returns the node with exactly the given identifier, if any.
func (r *Ring) NodeAt(id word.Word) (*Node, bool) {
	if id.Base() != r.d || id.Len() != r.k {
		return nil, false
	}
	target := id.MustRank()
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].rank >= target })
	if i < len(r.nodes) && r.nodes[i].rank == target {
		return r.nodes[i], true
	}
	return nil, false
}

// inHalfOpen reports whether x lies in the cyclic interval (a, b].
func inHalfOpen(a, b, x uint64) bool {
	if a == b {
		return true // single-node ring: the whole circle
	}
	if a < b {
		return a < x && x <= b
	}
	return x > a || x <= b
}

// inBlock reports whether x lies in the cyclic interval [a, b): the
// identifiers node a stands in for (a's block runs to its successor).
func inBlock(a, b, x uint64) bool {
	if a == b {
		return true
	}
	if a < b {
		return a <= x && x < b
	}
	return x >= a || x < b
}

// LookupResult reports one resolved lookup.
type LookupResult struct {
	Owner *Node
	// Hops counts messages: successor-walk hops plus de Bruijn hops.
	Hops int
	// DeBruijnHops counts only the imaginary shift steps.
	DeBruijnHops int
	// Path lists the real nodes visited, starting with the origin.
	Path []word.Word
}

// Lookup resolves the owner of key starting at node start with the
// basic Koorde walk: the imaginary identifier begins at the start
// node's own identifier, and each de Bruijn hop injects the key's next
// digit (the paper's Algorithm 1 path y_1…y_k executed over the sparse
// ring), interleaved with successor hops. Exactly k de Bruijn hops
// resolve any key. Deterministic.
func (r *Ring) Lookup(start *Node, key word.Word) (LookupResult, error) {
	if start == nil {
		return LookupResult{}, errors.New("dht: nil start node")
	}
	if key.Base() != r.d || key.Len() != r.k {
		return LookupResult{}, fmt.Errorf("%w: %v", ErrBadID, key)
	}
	st, err := r.StartWalk(start, key)
	if err != nil {
		return LookupResult{}, err
	}
	return r.lookup(start, st)
}

// LookupOptimized is Koorde's "best imaginary starting node"
// refinement: instead of the node's own identifier, the walk starts
// from the identifier inside the start node's block that minimizes
// the paper's Property 1 distance to the key — the block member with
// the longest suffix matching the key's prefix. With N random nodes
// the blocks have size ≈ d^k/N, so ≈ log_d N digit injections remain
// instead of k.
func (r *Ring) LookupOptimized(start *Node, key word.Word) (LookupResult, error) {
	if start == nil {
		return LookupResult{}, errors.New("dht: nil start node")
	}
	if key.Base() != r.d || key.Len() != r.k {
		return LookupResult{}, fmt.Errorf("%w: %v", ErrBadID, key)
	}
	st, err := r.StartWalkOptimized(start, key)
	if err != nil {
		return LookupResult{}, err
	}
	return r.lookup(start, st)
}

// lookup runs the Koorde walk as a Step loop — the same transition a
// cluster node applies per forwarded hop, so in-process lookups and
// distributed walks agree hop-for-hop by construction.
func (r *Ring) lookup(start *Node, st WalkState) (LookupResult, error) {
	cur := start
	res := LookupResult{Path: []word.Word{start.id}}
	guard := 4*r.k + 2*len(r.nodes) + 4
	for step := 0; ; step++ {
		if step > guard {
			r.m.timeouts.Inc()
			return LookupResult{}, fmt.Errorf("dht: lookup did not converge within %d steps", guard)
		}
		sr, err := r.Step(cur, st)
		if err != nil {
			return LookupResult{}, err
		}
		if sr.Next == nil {
			res.Owner = cur
			r.observeLookup(res)
			return res, nil
		}
		cur = sr.Next
		st = sr.State
		if sr.DeBruijn {
			res.DeBruijnHops++
		}
		res.Hops++
		res.Path = append(res.Path, cur.id)
		if sr.Final {
			res.Owner = cur
			r.observeLookup(res)
			return res, nil
		}
	}
}

// observeLookup records one resolved lookup in the registry.
func (r *Ring) observeLookup(res LookupResult) {
	r.m.lookups.Inc()
	r.m.lookupHops.Observe(float64(res.Hops))
	r.m.debruijnHops.Add(int64(res.DeBruijnHops))
	r.m.successorHops.Add(int64(res.Hops - res.DeBruijnHops))
}

// bestImaginary returns the identifier in start's block [start,
// successor) whose directed de Bruijn distance to key (Property 1) is
// minimal, together with the key digits still to inject (the last
// D(i,key) digits of the key). Searches overlap lengths longest-first
// with modular arithmetic over the block.
func (r *Ring) bestImaginary(start *Node, key word.Word) (word.Word, []byte, error) {
	a := start.rank
	b := start.successor.rank
	size, err := word.Count(r.d, r.k)
	if err != nil {
		return word.Word{}, nil, err
	}
	n := uint64(size)
	blockLen := (b - a + n) % n
	if blockLen == 0 {
		blockLen = n // single node: whole ring
	}
	for s := r.k; s >= 0; s-- {
		// Need i ∈ [a, a+blockLen) with i ≡ prefix_s(key) mod d^s.
		m := uint64(1)
		overflow := false
		for j := 0; j < s; j++ {
			m *= uint64(r.d)
			if m > n {
				overflow = true
				break
			}
		}
		if overflow {
			continue
		}
		var p uint64
		for j := 0; j < s; j++ {
			p = p*uint64(r.d) + uint64(key.Digit(j))
		}
		// Smallest i ≥ a with i ≡ p (mod m), working modulo n (n is a
		// multiple of m, so congruence classes tile the ring).
		delta := (p + n - a%m) % m
		if delta < blockLen {
			i := (a + delta) % n
			img, err := word.Unrank(r.d, r.k, i)
			if err != nil {
				return word.Word{}, nil, err
			}
			return img, key.Digits()[s:], nil
		}
	}
	return start.id, key.Digits(), nil
}
