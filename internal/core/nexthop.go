package core

import (
	"fmt"

	"repro/internal/word"
)

// Self-routing: Section 3's message format carries the whole routing
// path, but the distance functions also support destination-based
// forwarding, where each site derives just the next hop from (current
// site, destination) and the message header needs no path field.
// Kernels.NextHopDirected and Kernels.NextHopUndirected are those
// per-hop decisions; SelfRoute iterates one, and the network
// simulator's SendDestinationRouted exercises them end to end.

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
