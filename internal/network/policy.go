package network

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// Policy resolves a wildcard hop (a,*) at a forwarding site: it picks
// the digit b identifying which neighbor of the requested type
// receives the message. The paper's remark motivates this hook: "the
// site which transmits the message [is] able to select freely one of
// the neighbors of the specified type, so that the traffic could be
// more or less balanced."
type Policy interface {
	// Choose returns the digit for the wildcard hop taken at site cur.
	Choose(l Loads, cur word.Word, h core.Hop) byte
	// Name identifies the policy in experiment output.
	Name() string
}

// Loads is the engine state a Policy reads: the alphabet size, the
// engine's seeded generator, and the load on each link out of a site.
// Network reports the messages a link has carried so far, Contention
// the messages already planned across it (routes are fixed before
// queueing there).
type Loads interface {
	degree() int
	random() *rand.Rand
	// load returns the load on the link leaving cur by a hop of type
	// t with digit b, and whether the site it enters is live.
	load(cur word.Word, t core.HopType, b byte) (n int, live bool)
}

// PolicyFirst always chooses digit 0 — the unbalanced baseline.
type PolicyFirst struct{}

// Choose implements Policy.
func (PolicyFirst) Choose(Loads, word.Word, core.Hop) byte { return 0 }

// Name implements Policy.
func (PolicyFirst) Name() string { return "first" }

// PolicyRandom chooses a uniformly random digit from the engine's
// seeded generator — stateless spreading.
type PolicyRandom struct{}

// Choose implements Policy.
func (PolicyRandom) Choose(l Loads, _ word.Word, _ core.Hop) byte {
	return byte(l.random().Intn(l.degree()))
}

// Name implements Policy.
func (PolicyRandom) Name() string { return "random" }

// PolicyLeastLoaded chooses the digit whose outgoing link from the
// current site carries the least load, preferring live sites and
// breaking ties toward the lowest digit — the locally load-balancing
// policy of experiment E7. When every candidate neighbor is failed no
// choice can avoid a dead site; the policy then falls back to the
// least-loaded link over all candidates (rather than silently
// returning digit 0, which biased the doomed hop toward the
// 0-neighbor) and the forwarding path records the delivery failure.
type PolicyLeastLoaded struct{}

// Choose implements Policy.
func (PolicyLeastLoaded) Choose(l Loads, cur word.Word, h core.Hop) byte {
	if b, ok := leastLoaded(l, cur, h, true); ok {
		return b
	}
	// All candidates failed: an explicit fallback, no liveness filter.
	b, _ := leastLoaded(l, cur, h, false)
	return b
}

// leastLoaded scans the wildcard candidates of h at cur, optionally
// skipping failed neighbors, and reports whether any candidate
// survived the filter.
func leastLoaded(l Loads, cur word.Word, h core.Hop, skipFailed bool) (byte, bool) {
	best := byte(0)
	bestLoad := -1
	for b := 0; b < l.degree(); b++ {
		load, live := l.load(cur, h.Type, byte(b))
		if skipFailed && !live {
			continue
		}
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = byte(b), load
		}
	}
	return best, bestLoad >= 0
}

// Name implements Policy.
func (PolicyLeastLoaded) Name() string { return "least-loaded" }

func (n *Network) degree() int        { return n.cfg.D }
func (n *Network) random() *rand.Rand { return n.rng }

func (n *Network) load(cur word.Word, t core.HopType, b byte) (int, bool) {
	var next word.Word
	if t == core.TypeL {
		next = cur.ShiftLeft(b)
	} else {
		next = cur.ShiftRight(b)
	}
	nextV := graph.DeBruijnVertex(next)
	return n.linkLoad[[2]int{graph.DeBruijnVertex(cur), nextV}], !n.failed[nextV]
}

func (c *Contention) degree() int        { return c.cfg.D }
func (c *Contention) random() *rand.Rand { return c.rng }

func (c *Contention) load(cur word.Word, t core.HopType, b byte) (int, bool) {
	v := graph.DeBruijnVertex(cur)
	return int(c.planned[c.ls.id(v, c.ls.shift(v, t, b))]), true
}
