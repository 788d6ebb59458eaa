package core

import (
	"fmt"

	"repro/internal/word"
)

// Self-routing: Section 3's message format carries the whole routing
// path, but the distance functions also support destination-based
// forwarding, where each site derives just the next hop from (current
// site, destination) and the message header needs no path field. This
// file provides those per-hop decisions; the network simulator's
// SendDestinationRouted exercises them end to end.

// NextHopDirected returns the optimal next hop at cur toward dst in
// the uni-directional network: the left shift inserting y_{l+1}, where
// l is the current suffix/prefix overlap (Property 1). Iterating it
// reaches dst in exactly D(cur,dst) hops — each hop extends the
// overlap by one, so the distance decreases by one. The boolean is
// false when cur == dst.
func NextHopDirected(cur, dst word.Word) (Hop, bool, error) {
	if err := validatePair(cur, dst); err != nil {
		return Hop{}, false, err
	}
	if cur.Equal(dst) {
		return Hop{}, false, nil
	}
	sc := getScratch()
	sc.loadDigits(cur, dst)
	l := sc.ms.Overlap(sc.xd, sc.yd)
	putScratch(sc)
	return L(dst.Digit(l)), true, nil
}

// NextHopUndirected returns an optimal next hop at cur toward dst in
// the bi-directional network: the first hop of an Algorithm 4 route,
// recomputed locally at each site in O(k). The hop may be a wildcard
// (any neighbor of that type lies on some shortest path); resolve it
// with a policy. The boolean is false when cur == dst.
func NextHopUndirected(cur, dst word.Word) (Hop, bool, error) {
	sc := getScratch()
	h, ok, err := sc.NextHopUndirected(cur, dst)
	putScratch(sc)
	return h, ok, err
}

// SelfRoute iterates a next-hop function from src until dst is
// reached, resolving wildcards with choose (digit 0 when nil), and
// returns the walk. maxHops guards against a non-contracting next-hop
// function (programmer error in custom functions).
func SelfRoute(src, dst word.Word, next func(cur, dst word.Word) (Hop, bool, error), choose Chooser, maxHops int) ([]word.Word, error) {
	if next == nil {
		return nil, fmt.Errorf("core: nil next-hop function")
	}
	walk := []word.Word{src}
	cur := src
	for hops := 0; ; hops++ {
		h, more, err := next(cur, dst)
		if err != nil {
			return nil, err
		}
		if !more {
			return walk, nil
		}
		if hops >= maxHops {
			return nil, fmt.Errorf("core: self-routing exceeded %d hops from %v to %v", maxHops, src, dst)
		}
		if h.Wildcard {
			digit := byte(0)
			if choose != nil {
				digit = choose(hops, cur, h)
			}
			h = Hop{Type: h.Type, Digit: digit}
		}
		cur, err = Path{h}.Apply(cur, nil)
		if err != nil {
			return nil, err
		}
		walk = append(walk, cur)
	}
}
