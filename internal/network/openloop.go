package network

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/word"
)

// Open-loop load/latency simulation: messages arrive continuously at a
// configured rate (per site per round) for a warm/measure window, and
// the engine reports steady-state latency — the latency-vs-offered-load
// curve that characterizes an interconnection network. Complements the
// closed batch engine (Contention): there the backlog drains, here the
// arrival process pushes the network toward saturation.

// OpenLoopConfig parameterizes an open-loop run.
type OpenLoopConfig struct {
	D, K int
	// Rate is the expected number of new messages per site per round
	// (Bernoulli arrivals per site).
	Rate float64
	// Rounds is the measurement window; messages injected within it
	// are tracked to delivery (the run continues past the window until
	// all tracked messages drain).
	Rounds int
	// LinkCapacity per round; defaults to 1.
	LinkCapacity int
	// Seed drives arrivals, destinations and wildcard resolution.
	Seed int64
	// MaxRounds aborts unstable runs (offered load beyond capacity);
	// defaults to 40·Rounds + 64·k.
	MaxRounds int
}

// OpenLoopResult summarizes an open-loop run.
type OpenLoopResult struct {
	Offered      int // messages injected during the window
	Delivered    int
	MeanLatency  float64 // rounds from injection to delivery
	P95Latency   int
	MaxLatency   int
	MeanSlowdown float64 // latency / hop-count, ≥ 1
	Saturated    bool    // true when the run hit MaxRounds undrained
}

// RunOpenLoop executes the open-loop simulation. When the offered
// load exceeds what the topology can carry, the run reports
// Saturated=true with statistics over the messages that did deliver.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if _, err := word.Count(cfg.D, cfg.K); err != nil {
		return OpenLoopResult{}, fmt.Errorf("network: %w", err)
	}
	if cfg.Rate <= 0 {
		return OpenLoopResult{}, errors.New("network: rate must be positive")
	}
	if cfg.Rounds < 1 {
		return OpenLoopResult{}, errors.New("network: need at least one round")
	}
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = 1
	}
	if cfg.LinkCapacity < 1 {
		return OpenLoopResult{}, errors.New("network: link capacity must be positive")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 40*cfg.Rounds + 64*cfg.K
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ls, err := newLinkSpace(cfg.D, cfg.K)
	if err != nil {
		return OpenLoopResult{}, err
	}
	sites := make([]word.Word, ls.n)
	for i := range sites {
		w, err := word.Unrank(cfg.D, cfg.K, uint64(i))
		if err != nil {
			return OpenLoopResult{}, err
		}
		sites[i] = w
	}
	var res OpenLoopResult
	kn := core.NewKernels(core.KernelConfig{})
	lr := newLinkRounds(ls, cfg.LinkCapacity)
	// Walks are carved from shared chunks of link ids (a walk has at
	// most k hops); a chunk is freed once its last walker delivers.
	var chunk []int32
	for round := 1; ; round++ {
		if round > cfg.MaxRounds {
			res.Saturated = true
			break
		}
		// Arrivals during the measurement window.
		if round <= cfg.Rounds {
			for v, src := range sites {
				if rng.Float64() >= cfg.Rate {
					continue
				}
				dst := sites[word.RandomRank(cfg.D, cfg.K, rng)]
				route, err := kn.RouteUndirected(src, dst)
				if err != nil {
					return OpenLoopResult{}, err
				}
				// Walk the route by rank, resolving each wildcard
				// with a uniform digit.
				if cap(chunk)-len(chunk) < cfg.K {
					chunk = make([]int32, 0, max(1024, cfg.K))
				}
				links, cur := chunk[len(chunk):len(chunk):len(chunk)+cfg.K], v
				for _, h := range route {
					digit := h.Digit
					if h.Wildcard {
						digit = byte(rng.Intn(cfg.D))
					}
					next := ls.shift(cur, h.Type, digit)
					links = append(links, ls.id(cur, next))
					cur = next
				}
				chunk = chunk[:len(chunk)+len(links)]
				res.Offered++
				if err := lr.add(walker{links: links, injected: int32(round)}); err != nil {
					return OpenLoopResult{}, err
				}
			}
		} else if len(lr.inflight) == 0 {
			break
		}
		// One synchronous forwarding round, the batch engine's
		// discipline: per-link FIFO with capacity.
		progressed, err := lr.step(round)
		if err != nil {
			return OpenLoopResult{}, err
		}
		if !progressed && round > cfg.Rounds && len(lr.inflight) > 0 {
			return OpenLoopResult{}, errors.New("network: open loop stalled (internal error)")
		}
	}
	res.Delivered = lr.delivered
	res.MeanLatency = lr.latency.Mean()
	res.MeanSlowdown = lr.slowdown.Mean()
	res.P95Latency = lr.p95.Quantile(0.95)
	res.MaxLatency = lr.maxLatency
	return res, nil
}
