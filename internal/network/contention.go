package network

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// Store-and-forward contention model. The Send/Inject engine moves one
// message at a time, so links never contend; this engine injects a
// whole batch and advances it in synchronous rounds with a per-link
// capacity: every round, each directed link transmits at most
// LinkCapacity queued messages (FIFO, deterministic tie-break by
// arrival order) and the rest wait. Latency = delivery round; the
// paper's wildcard remark ("traffic could be more or less balanced")
// becomes measurable as a latency/saturation difference between
// policies.

// ContentionConfig parameterizes a contention run.
type ContentionConfig struct {
	D, K int
	// Unidirectional restricts links to type-L moves.
	Unidirectional bool
	// LinkCapacity is the number of messages one directed link can
	// carry per round. Defaults to 1.
	LinkCapacity int
	// Policy resolves wildcard hops at injection time (routes are
	// fixed before queueing); PolicyFirst when nil. PolicyLeastLoaded
	// balances against the *planned* load of already-routed messages.
	Policy ContentionPolicy
	// Seed drives random policies and workload draws.
	Seed int64
	// MaxRounds aborts pathological runs; defaults to 64·k + #messages.
	MaxRounds int
}

// ContentionPolicy resolves a wildcard hop during route planning.
type ContentionPolicy interface {
	// Choose picks the digit for wildcard hop h at site cur, given the
	// planned per-link loads so far.
	Choose(sim *Contention, cur word.Word, h core.Hop) byte
	// Name identifies the policy in output.
	Name() string
}

// PlanFirst resolves every wildcard to digit 0.
type PlanFirst struct{}

// Choose implements ContentionPolicy.
func (PlanFirst) Choose(*Contention, word.Word, core.Hop) byte { return 0 }

// Name implements ContentionPolicy.
func (PlanFirst) Name() string { return "first" }

// PlanRandom resolves wildcards uniformly at random.
type PlanRandom struct{}

// Choose implements ContentionPolicy.
func (PlanRandom) Choose(sim *Contention, _ word.Word, _ core.Hop) byte {
	return byte(sim.rng.Intn(sim.cfg.D))
}

// Name implements ContentionPolicy.
func (PlanRandom) Name() string { return "random" }

// PlanLeastLoaded resolves each wildcard toward the link with the
// least planned traffic.
type PlanLeastLoaded struct{}

// Choose implements ContentionPolicy.
func (PlanLeastLoaded) Choose(sim *Contention, cur word.Word, h core.Hop) byte {
	curV := graph.DeBruijnVertex(cur)
	best := byte(0)
	bestLoad := int32(-1)
	for b := 0; b < sim.cfg.D; b++ {
		load := sim.planned[sim.ls.id(curV, sim.ls.shift(curV, h.Type, byte(b)))]
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = byte(b), load
		}
	}
	return best
}

// Name implements ContentionPolicy.
func (PlanLeastLoaded) Name() string { return "least-loaded" }

// Contention is the batch store-and-forward simulator.
type Contention struct {
	cfg     ContentionConfig
	kn      *core.Kernels
	rng     *rand.Rand
	ls      linkSpace
	planned []int32   // planned messages per link id
	walks   [][]int32 // planned link ids per message
}

// NewContention validates the configuration.
func NewContention(cfg ContentionConfig) (*Contention, error) {
	ls, err := newLinkSpace(cfg.D, cfg.K)
	if err != nil {
		return nil, err
	}
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = 1
	}
	if cfg.LinkCapacity < 1 {
		return nil, fmt.Errorf("network: link capacity %d must be positive", cfg.LinkCapacity)
	}
	if cfg.Policy == nil {
		cfg.Policy = PlanFirst{}
	}
	return &Contention{
		cfg:     cfg,
		kn:      core.NewKernels(core.KernelConfig{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		ls:      ls,
		planned: make([]int32, ls.count()),
	}, nil
}

// Add routes one message (optimal route, wildcards resolved by the
// policy against planned load) and enqueues it for the next Run.
func (c *Contention) Add(src, dst word.Word) error {
	if src.Base() != c.cfg.D || src.Len() != c.cfg.K || dst.Base() != c.cfg.D || dst.Len() != c.cfg.K {
		return fmt.Errorf("network: words do not address DN(%d,%d)", c.cfg.D, c.cfg.K)
	}
	var route core.Path
	var err error
	if c.cfg.Unidirectional {
		route, err = core.RouteDirected(src, dst)
	} else {
		route, err = c.kn.RouteUndirected(src, dst)
	}
	if err != nil {
		return err
	}
	conc, err := route.Concrete(src, func(_ int, cur word.Word, h core.Hop) byte {
		return c.cfg.Policy.Choose(c, cur, h)
	})
	if err != nil {
		return err
	}
	links := make([]int32, len(conc))
	v := graph.DeBruijnVertex(src)
	for i, h := range conc {
		next := c.ls.shift(v, h.Type, h.Digit)
		links[i] = c.ls.id(v, next)
		c.planned[links[i]]++
		v = next
	}
	c.walks = append(c.walks, links)
	return nil
}

// AddUniform enqueues count uniform-random messages.
func (c *Contention) AddUniform(count int) error {
	if count < 1 {
		return fmt.Errorf("network: need at least one message, got %d", count)
	}
	for i := 0; i < count; i++ {
		src := word.Random(c.cfg.D, c.cfg.K, c.rng)
		dst := word.Random(c.cfg.D, c.cfg.K, c.rng)
		if err := c.Add(src, dst); err != nil {
			return err
		}
	}
	return nil
}

// ContentionResult summarizes a batch run.
type ContentionResult struct {
	Messages     int
	Rounds       int     // rounds until the last delivery
	MeanLatency  float64 // mean delivery round
	P95Latency   int
	MaxLatency   int
	MeanSlowdown float64 // mean latency / hop-count ratio (≥ 1)
	MaxQueue     int     // peak messages waiting on one link in one round
}

// Run advances synchronous rounds until every message is delivered.
// Each round, each directed link moves its LinkCapacity oldest waiting
// messages one hop. Deterministic given the configuration.
func (c *Contention) Run() (ContentionResult, error) {
	maxRounds := c.cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64*c.cfg.K + len(c.walks)
	}
	lr := newLinkRounds(c.ls, c.cfg.LinkCapacity)
	for _, links := range c.walks {
		// Every message is injected before round 1, so its latency is
		// its delivery round.
		if err := lr.add(walker{links: links, injected: 1}); err != nil {
			return ContentionResult{}, err
		}
	}
	for round := 1; len(lr.inflight) > 0; round++ {
		if round > maxRounds {
			return ContentionResult{}, errors.New("network: contention run exceeded round budget")
		}
		if _, err := lr.step(round); err != nil {
			return ContentionResult{}, err
		}
	}
	return ContentionResult{
		Messages:     len(c.walks),
		Rounds:       lr.maxLatency,
		MeanLatency:  lr.latency.Mean(),
		P95Latency:   lr.p95.Quantile(0.95),
		MaxLatency:   lr.maxLatency,
		MeanSlowdown: lr.slowdown.Mean(),
		MaxQueue:     lr.maxQueue,
	}, nil
}

// PlannedMaxLinkLoad returns the heaviest planned per-link message
// count — the static congestion the run resolves over time.
func (c *Contention) PlannedMaxLinkLoad() int {
	best := int32(0)
	for _, v := range c.planned {
		best = max(best, v)
	}
	return int(best)
}
