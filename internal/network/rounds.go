package network

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/word"
)

// walker is one message of a link-round run: its planned site walk,
// the index of the site holding it, the round it was injected in, and
// its FIFO stamp at the link it waits on.
type walker struct {
	walk     []word.Word
	pos      int
	injected int
	queue    int
}

// linkRounds is the store-and-forward round discipline shared by the
// batch (Contention.Run) and open-loop (RunOpenLoop) engines: every
// round, each directed link moves its capacity oldest waiting walkers
// one hop, and the rest wait. A walker delivered in round r has
// latency r − injected + 1; a one-site walk is delivered on add with
// latency 0.
type linkRounds struct {
	capacity  int
	inflight  []*walker
	arrival   int // next FIFO stamp
	remaining int // walkers added but not yet delivered
	delivered int

	latency, slowdown stats.Accumulator
	p95               stats.Histogram
	maxLatency        int
	maxQueue          int // peak walkers waiting on one link in one round
}

// add stamps w's arrival order and enqueues it, delivering a one-site
// walk at once.
func (lr *linkRounds) add(w *walker) error {
	w.queue = lr.arrival
	lr.arrival++
	if len(w.walk) == 1 {
		return lr.record(0, 1)
	}
	lr.inflight = append(lr.inflight, w)
	lr.remaining++
	return nil
}

// record accounts one delivery.
func (lr *linkRounds) record(lat int, slowdown float64) error {
	lr.delivered++
	lr.latency.Add(float64(lat))
	lr.slowdown.Add(slowdown)
	if lat > lr.maxLatency {
		lr.maxLatency = lat
	}
	return lr.p95.Add(lat)
}

// step runs one synchronous round and reports whether any walker
// moved. Deterministic: links are served in sorted order and each
// link's queue in FIFO-stamp order, so map iteration order never
// leaks into the stamps handed out here.
func (lr *linkRounds) step(round int) (bool, error) {
	byLink := make(map[[2]int][]*walker)
	for _, w := range lr.inflight {
		if w.pos == len(w.walk)-1 {
			continue
		}
		link := [2]int{
			graph.DeBruijnVertex(w.walk[w.pos]),
			graph.DeBruijnVertex(w.walk[w.pos+1]),
		}
		byLink[link] = append(byLink[link], w)
	}
	links := make([][2]int, 0, len(byLink))
	for link := range byLink {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	progressed := false
	for _, link := range links {
		queued := byLink[link]
		sort.Slice(queued, func(i, j int) bool { return queued[i].queue < queued[j].queue })
		if len(queued) > lr.maxQueue {
			lr.maxQueue = len(queued)
		}
		for _, w := range queued[:min(lr.capacity, len(queued))] {
			w.pos++
			w.queue = lr.arrival // re-enqueue order at the next link
			lr.arrival++
			progressed = true
			if w.pos == len(w.walk)-1 {
				lr.remaining--
				lat := round - w.injected + 1
				if err := lr.record(lat, float64(lat)/float64(len(w.walk)-1)); err != nil {
					return progressed, err
				}
			}
		}
	}
	// Compact delivered walkers occasionally.
	if len(lr.inflight) > 4096 {
		kept := lr.inflight[:0]
		for _, w := range lr.inflight {
			if w.pos < len(w.walk)-1 {
				kept = append(kept, w)
			}
		}
		lr.inflight = kept
	}
	return progressed, nil
}
