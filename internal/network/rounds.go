package network

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/word"
)

// linkSpace numbers the directed links of DN(d,k) by vertex rank. The
// shift neighbours of a site with rank v are the d left shifts
// (v·d + a) mod N, a contiguous range, and the d right shifts
// a·N/d + v/d; a link's id is v·2d plus the slot of its target among
// v's sorted, distinct shift neighbours. Id order is therefore
// (source rank, target rank) order, and a constant word's self-loop
// has an id like any other link.
type linkSpace struct {
	d, n int
}

func newLinkSpace(d, k int) (linkSpace, error) {
	n, err := word.Count(d, k)
	if err != nil {
		return linkSpace{}, fmt.Errorf("network: %w", err)
	}
	if n > math.MaxInt32/(2*d) {
		return linkSpace{}, fmt.Errorf("network: DN(%d,%d) has more links than int32 link ids number", d, k)
	}
	return linkSpace{d: d, n: n}, nil
}

// count returns the size of the link id space, N·2d.
func (ls linkSpace) count() int { return ls.n * 2 * ls.d }

// shift returns the rank reached from rank v by hop type t with digit a.
func (ls linkSpace) shift(v int, t core.HopType, a byte) int {
	if t == core.TypeL {
		return (v*ls.d + int(a)) % ls.n
	}
	return int(a)*(ls.n/ls.d) + v/ls.d
}

// id returns the link id of v → u, where u is a shift neighbour of v.
func (ls linkSpace) id(v, u int) int32 {
	lo := (v * ls.d) % ls.n // left shifts are lo .. lo+d-1
	slot := min(max(u-lo, 0), ls.d)
	for r, step := v/ls.d, ls.n/ls.d; r < u; r += step {
		if r < lo || r >= lo+ls.d {
			slot++ // a right shift below u that no left shift repeats
		}
	}
	return int32(v*2*ls.d + slot)
}

// walker is one message of a link-round run: its planned walk as link
// ids, the index of the link it waits on, the round it was injected
// in, and the last step in which it crossed a link.
type walker struct {
	links    []int32
	pos      int32
	injected int32
	moved    int32
}

// linkRounds is the store-and-forward round discipline shared by the
// batch (Contention.Run) and open-loop (RunOpenLoop) engines: every
// round, each directed link moves its capacity oldest waiting walkers
// one hop, and the rest wait. A walker delivered in round r has
// latency r − injected + 1; a zero-hop walk is delivered on add with
// latency 0.
//
// inflight is kept in FIFO order: the walkers that did not move, then
// the ones that did in the order they moved, then the newly added
// ones. A stable radix pass over the link ids groups it by link, so
// links are served in id order and each link's queue oldest first,
// without maps, comparison sorts or per-round allocation. Per-round
// work is linear in the walkers in flight.
type linkRounds struct {
	capacity int
	linkBits int // significant bits of the largest link id

	inflight []walker
	steps    int32

	// per-step scratch
	next           []walker
	keys, idx, tmp []int32
	handed         []int32

	delivered         int
	latency, slowdown stats.Accumulator
	p95               stats.Histogram
	maxLatency        int
	maxQueue          int // peak walkers waiting on one link in one round
}

func newLinkRounds(ls linkSpace, capacity int) linkRounds {
	return linkRounds{capacity: capacity, linkBits: bits.Len(uint(ls.count() - 1))}
}

// add enqueues w behind every walker already in flight, delivering a
// zero-hop walk at once.
func (lr *linkRounds) add(w walker) error {
	if len(w.links) == 0 {
		return lr.record(0, 1)
	}
	lr.inflight = append(lr.inflight, w)
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
// moved.
func (lr *linkRounds) step(round int) (bool, error) {
	lr.steps++
	order := lr.groupByLink()
	handed := lr.handed[:0]
	progressed := false
	for i := 0; i < len(order); {
		link := lr.keys[order[i]]
		j := i + 1
		for j < len(order) && lr.keys[order[j]] == link {
			j++
		}
		lr.maxQueue = max(lr.maxQueue, j-i)
		for _, wi := range order[i:min(j, i+lr.capacity)] {
			w := &lr.inflight[wi]
			w.pos++
			w.moved = lr.steps
			progressed = true
			if int(w.pos) < len(w.links) {
				handed = append(handed, wi)
				continue
			}
			lat := round - int(w.injected) + 1
			if err := lr.record(lat, float64(lat)/float64(len(w.links))); err != nil {
				return progressed, err
			}
		}
		i = j
	}
	next := lr.next[:0]
	for _, w := range lr.inflight {
		if w.moved != lr.steps {
			next = append(next, w)
		}
	}
	for _, wi := range handed {
		next = append(next, lr.inflight[wi])
	}
	lr.inflight, lr.next, lr.handed = next, lr.inflight[:0], handed[:0]
	return progressed, nil
}

// groupByLink returns the indices of inflight ordered by the link each
// walker waits on, ties in inflight order: an LSD radix sort on the
// link ids, eight bits a pass. lr.keys[i] is walker i's link id.
func (lr *linkRounds) groupByLink() []int32 {
	m := len(lr.inflight)
	keys, idx, tmp := resize(lr.keys, m), resize(lr.idx, m), resize(lr.tmp, m)
	lr.keys, lr.idx, lr.tmp = keys, idx, tmp
	for i := range lr.inflight {
		w := &lr.inflight[i]
		keys[i] = w.links[w.pos]
		idx[i] = int32(i)
	}
	for shift := 0; shift < lr.linkBits; shift += 8 {
		var start [257]int32
		for _, i := range idx {
			start[(keys[i]>>shift)&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, i := range idx {
			b := (keys[i] >> shift) & 0xff
			tmp[start[b]] = i
			start[b]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, 2*n)
	}
	return s[:n]
}
