package network

import (
	"fmt"

	"repro/internal/word"
)

// BroadcastResult reports a one-to-all dissemination.
type BroadcastResult struct {
	// Reached counts sites holding the message at the end (including
	// the source).
	Reached int
	// Rounds is the number of synchronous forwarding rounds.
	Rounds int
	// Messages is the number of link crossings consumed.
	Messages int
}

// FloodBroadcast disseminates from src by flooding: in each
// synchronous round, every site that first received the message in the
// previous round retransmits it on all its outgoing links. Duplicate
// receptions cost messages but add no reach — the baseline a
// tree-based broadcast is compared against. Failed sites neither
// receive nor forward.
func (n *Network) FloodBroadcast(src word.Word) (BroadcastResult, error) {
	srcV, err := n.vertex(src)
	if err != nil {
		return BroadcastResult{}, err
	}
	if n.failed[srcV] {
		return BroadcastResult{}, fmt.Errorf("network: broadcast source %v failed", src)
	}
	informed := make([]bool, n.g.NumVertices())
	informed[srcV] = true
	frontier := []int32{int32(srcV)}
	res := BroadcastResult{Reached: 1}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range n.g.OutNeighbors(int(u)) {
				if n.failed[int(v)] {
					continue
				}
				res.Messages++
				n.linkLoad[[2]int{int(u), int(v)}]++
				n.siteLoad[v]++
				if !informed[v] {
					informed[v] = true
					res.Reached++
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			res.Rounds++
		}
		frontier = next
	}
	return res, nil
}

// TreeBroadcast disseminates from src along a breadth-first spanning
// tree of the live topology: every site receives the message exactly
// once, so Messages = Reached - 1 and Rounds equals the source's
// eccentricity — the efficient alternative flooding is measured
// against. (On the binary network, the §1 Samatham–Pradhan complete
// binary tree embedding realizes the same bound for the tree's nodes;
// the BFS tree covers every site of any DN(d,k).)
func (n *Network) TreeBroadcast(src word.Word) (BroadcastResult, error) {
	srcV, err := n.vertex(src)
	if err != nil {
		return BroadcastResult{}, err
	}
	if n.failed[srcV] {
		return BroadcastResult{}, fmt.Errorf("network: broadcast source %v failed", src)
	}
	informed := make([]bool, n.g.NumVertices())
	informed[srcV] = true
	frontier := []int32{int32(srcV)}
	res := BroadcastResult{Reached: 1}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range n.g.OutNeighbors(int(u)) {
				if n.failed[int(v)] || informed[v] {
					continue
				}
				informed[v] = true
				res.Reached++
				res.Messages++
				n.linkLoad[[2]int{int(u), int(v)}]++
				n.siteLoad[v]++
				next = append(next, v)
			}
		}
		if len(next) > 0 {
			res.Rounds++
		}
		frontier = next
	}
	return res, nil
}
