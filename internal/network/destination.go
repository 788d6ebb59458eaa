package network

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/word"
)

// SendDestinationRouted forwards a message with destination-based
// self-routing: the header carries no path field; every site derives
// its next hop locally from (current site, destination) with the
// kernel engine's next-hop queries (Kernels.NextHopDirected /
// NextHopUndirected), resolving wildcard decisions with the configured policy. Hop counts
// match source-routed delivery exactly — per-hop recomputation
// contracts the distance by one regardless of wildcard resolution.
func (n *Network) SendDestinationRouted(src, dst word.Word, payload string) (Delivery, error) {
	if _, err := n.vertex(src); err != nil {
		return Delivery{}, err
	}
	if _, err := n.vertex(dst); err != nil {
		return Delivery{}, err
	}
	n.m.sent.Inc()
	return n.forward(Message{Control: ControlData, Source: src, Dest: dst, Payload: payload}, true)
}

// nextHop is a self-routed site's local decision: the first hop of a
// shortest path from cur to dst, possibly a wildcard.
func (n *Network) nextHop(cur, dst word.Word) (core.Hop, error) {
	var hop core.Hop
	var more bool
	var err error
	if n.cfg.Unidirectional {
		hop, more, err = n.kn.NextHopDirected(cur, dst)
	} else {
		hop, more, err = n.kn.NextHopUndirected(cur, dst)
	}
	if err == nil && !more {
		// Unreachable: forward asks only while cur != dst.
		err = fmt.Errorf("network: next-hop reported done at %v ≠ %v", cur, dst)
	}
	return hop, err
}
