package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

// Harness is a whole in-memory cluster over one MemTransport: real
// nodes, real wire frames, channel-link connections — the TCP
// deployment with the sockets swapped out. Node identifiers come from
// a seeded generator, so a harness run is reproducible end to end.
type Harness struct {
	Transport *serve.MemTransport
	// Chaos is the fault-injecting decorator over Transport, present
	// only when HarnessConfig.Chaos was set. It boots disabled — the
	// cluster forms on clean links — and the test flips it on once
	// converged. When present, every node and every Client dial runs
	// through it.
	Chaos    *serve.ChaosTransport
	cfg      HarnessConfig
	rng      *rand.Rand
	used     map[string]bool
	nextAddr int
	nodes    []*Node         // Kill/Leave leave nil holes; index = node number
	regs     []*obs.Registry // per-node registries, parallel to nodes
}

// HarnessConfig shapes a harness cluster.
type HarnessConfig struct {
	// Nodes is the initial node count (≥ 1).
	Nodes int
	// Seed drives identifier generation.
	Seed int64
	// IDLen defaults to the cluster default; small tests use a small
	// space.
	IDLen int
	// Replication passes through to every node.
	Replication int
	// Serve is the per-node server config template. Registry must be
	// nil: each node gets its own registry so per-node metrics stay
	// separable.
	Serve serve.Config
	// PeerIOTimeout passes through to every node (0 keeps the cluster
	// default; tests use short values so wedged-peer recovery is fast).
	PeerIOTimeout time.Duration
	// GossipInterval passes through to every node (0 keeps the
	// cluster default; negative disables the anti-entropy loop).
	GossipInterval time.Duration
	// Chaos, when non-nil, wraps the fabric in a ChaosTransport with
	// this config (initially disabled — enable via Harness.Chaos after
	// the cluster converges).
	Chaos *serve.ChaosConfig
}

// NewHarness boots an n-node converged cluster.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: harness needs ≥ 1 node, got %d", cfg.Nodes)
	}
	if cfg.Serve.Registry != nil {
		return nil, fmt.Errorf("cluster: harness owns per-node registries")
	}
	if cfg.IDLen == 0 {
		cfg.IDLen = DefaultIDLen
	}
	h := &Harness{
		Transport: serve.NewMemTransport(),
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		used:      make(map[string]bool),
	}
	if cfg.Chaos != nil {
		h.Chaos = serve.NewChaosTransport(h.Transport, *cfg.Chaos)
	}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := h.Join(); err != nil {
			h.Close()
			return nil, err
		}
	}
	if err := h.WaitConverged(5 * time.Second); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// freshID draws an unused identifier from the seeded generator.
func (h *Harness) freshID() word.Word {
	for {
		w := word.Random(idBase, h.cfg.IDLen, h.rng)
		if !h.used[w.String()] {
			h.used[w.String()] = true
			return w
		}
	}
}

// Join boots one more node (seeded through every live peer) and
// returns its index.
func (h *Harness) Join() (int, error) {
	var seeds []string
	for _, n := range h.nodes {
		if n != nil {
			seeds = append(seeds, n.PeerAddr())
		}
	}
	i := len(h.nodes)
	scfg := h.cfg.Serve
	scfg.Registry = obs.NewRegistry()
	node, err := New(Config{
		ID:             h.freshID().String(),
		IDLen:          h.cfg.IDLen,
		ClientAddr:     fmt.Sprintf("client-%d", i),
		PeerAddr:       fmt.Sprintf("peer-%d", i),
		Transport:      h.link(),
		Replication:    h.cfg.Replication,
		Seeds:          seeds,
		Serve:          scfg,
		PeerIOTimeout:  h.cfg.PeerIOTimeout,
		GossipInterval: h.cfg.GossipInterval,
	})
	if err != nil {
		return 0, err
	}
	h.nodes = append(h.nodes, node)
	h.regs = append(h.regs, scfg.Registry)
	return i, nil
}

// Node returns node i (nil after Kill/Leave).
func (h *Harness) Node(i int) *Node { return h.nodes[i] }

// Registry returns node i's metrics registry. It outlives the node —
// a killed node's final counters stay readable.
func (h *Harness) Registry(i int) *obs.Registry { return h.regs[i] }

// Live returns the running nodes.
func (h *Harness) Live() []*Node {
	var out []*Node
	for _, n := range h.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// link is the transport everything dials through: the chaos decorator
// when configured, the bare fabric otherwise.
func (h *Harness) link() serve.Transport {
	if h.Chaos != nil {
		return h.Chaos
	}
	return h.Transport
}

// Client dials node i's query listener (through the chaos decorator
// when configured).
func (h *Harness) Client(i int) (*serve.Client, error) {
	n := h.nodes[i]
	if n == nil {
		return nil, fmt.Errorf("cluster: node %d is down", i)
	}
	return serve.DialTransport(h.link(), n.ClientAddr())
}

// Queries draws n seeded scalar requests over DG(2,k), cycling
// distance, route and next-hop. With mixModes each request's mode is a
// coin flip; without, every request is undirected.
func Queries(seed int64, k, n int, mixModes bool) []serve.Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]serve.Request, n)
	for i := range out {
		src := word.Random(2, k, rng)
		dst := word.Random(2, k, rng)
		mode := serve.Undirected
		if mixModes && rng.Intn(2) == 1 {
			mode = serve.Directed
		}
		switch i % 3 {
		case 0:
			out[i] = serve.DistanceRequest(src, dst, mode)
		case 1:
			out[i] = serve.RouteRequest(src, dst, mode)
		default:
			out[i] = serve.NextHopRequest(src, dst, mode)
		}
	}
	return out
}

// Driver is one closed-loop client of Drive: it dials node Node and
// sends Reqs in order, one at a time.
type Driver struct {
	Node int
	Reqs []serve.Request
}

// DriverResult tallies one driver. OK counts requests that got a
// response (of any status) and Lats their round trips; Errs counts
// requests that failed in transit (timeout, severed link), FirstErr
// the first of them.
type DriverResult struct {
	OK, Errs int
	FirstErr error
	Lats     []time.Duration
}

// Total folds per-driver results into one.
func Total(rs []DriverResult) DriverResult {
	var t DriverResult
	for _, r := range rs {
		t.OK += r.OK
		t.Errs += r.Errs
		if t.FirstErr == nil {
			t.FirstErr = r.FirstErr
		}
		t.Lats = append(t.Lats, r.Lats...)
	}
	return t
}

// driveTimeout bounds one Drive request; it sits above every server
// deadline the harness users configure, so it fires only on a lost
// response.
const driveTimeout = 10 * time.Second

// Drive runs the drivers concurrently, each over its own connection,
// and waits for every driver it started. A request that fails in
// transit counts in Errs and the driver redials before its next one.
// A non-nil event fires once, from driver 0, before the request at a
// third of its share — the hook for a Kill, Join or Storm under load.
// The error is the first failed dial or the event's error; the
// results of the drivers that ran are returned either way.
func (h *Harness) Drive(drivers []Driver, event func() error) ([]DriverResult, error) {
	// Resolve addresses up front: the event may rewrite h.nodes while
	// drivers redial.
	addrs := make([]string, len(drivers))
	for i, d := range drivers {
		n := h.nodes[d.Node]
		if n == nil {
			return nil, fmt.Errorf("cluster: node %d is down", d.Node)
		}
		addrs[i] = n.ClientAddr()
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	res := make([]DriverResult, len(drivers))
	for i := range drivers {
		c, err := serve.DialTransport(h.link(), addrs[i])
		if err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			defer func() { c.Close() }() // the latest redial
			r, reqs := &res[i], drivers[i].Reqs
			for j, req := range reqs {
				if i == 0 && j == len(reqs)/3 && event != nil {
					if err := event(); err != nil {
						fail(err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), driveTimeout)
				start := time.Now()
				_, err := c.Do(ctx, req)
				cancel()
				if err == nil {
					r.OK++
					r.Lats = append(r.Lats, time.Since(start))
					continue
				}
				r.Errs++
				if r.FirstErr == nil {
					r.FirstErr = err
				}
				c.Close()
				nc, err := serve.DialTransport(h.link(), addrs[i])
				if err != nil {
					fail(err)
					return
				}
				c = nc
			}
		}(i, c)
	}
	wg.Wait()
	return res, first
}

// Kill crashes node i: listeners close, established connections
// sever, no goodbye. Returns the node's final conservation counts
// (exact: the dying server drains its queue shedding shutdown).
func (h *Harness) Kill(i int) (serve.Counts, error) {
	n := h.nodes[i]
	if n == nil {
		return serve.Counts{}, fmt.Errorf("cluster: node %d already down", i)
	}
	h.nodes[i] = nil
	err := n.Close()
	if err != nil {
		return serve.Counts{}, err
	}
	return n.Counts(), nil
}

// Leave departs node i cleanly (membership gossiped before shutdown).
func (h *Harness) Leave(i int) (serve.Counts, error) {
	n := h.nodes[i]
	if n == nil {
		return serve.Counts{}, fmt.Errorf("cluster: node %d already down", i)
	}
	h.nodes[i] = nil
	err := n.Leave()
	if err != nil {
		return serve.Counts{}, err
	}
	return n.Counts(), nil
}

// Storm is a correlated churn burst: kills crash victims concurrently
// (chosen by the harness rng from the live nodes, skipping indices
// < protect so driver-facing nodes survive), then joins fresh nodes.
// It returns the final conservation counts of every victim — the
// caller folds them into Counts so the cluster-wide identity still
// covers the dead. The burst is the point: every victim's connections
// sever at once, mid-frame for any frame in flight, while the
// survivors' forwards and gossip are still aimed at them.
func (h *Harness) Storm(kills, joins, protect int) ([]serve.Counts, error) {
	var victims []int
	for i := protect; i < len(h.nodes); i++ {
		if h.nodes[i] != nil {
			victims = append(victims, i)
		}
	}
	if kills > len(victims) {
		return nil, fmt.Errorf("cluster: storm wants %d kills, only %d unprotected nodes", kills, len(victims))
	}
	h.rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:kills]

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		killed []serve.Counts
		kerr   error
	)
	for _, i := range victims {
		n := h.nodes[i]
		h.nodes[i] = nil
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			err := n.Close()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && kerr == nil {
				kerr = err
			}
			killed = append(killed, n.Counts())
		}(n)
	}
	wg.Wait()
	if kerr != nil {
		return killed, kerr
	}
	for j := 0; j < joins; j++ {
		if _, err := h.Join(); err != nil {
			return killed, err
		}
	}
	return killed, nil
}

// WaitConverged blocks until the live nodes share one membership view.
func (h *Harness) WaitConverged(timeout time.Duration) error {
	live := h.Live()
	if len(live) == 0 {
		return nil
	}
	return WaitConverged(timeout, live...)
}

// Close shuts every live node down.
func (h *Harness) Close() {
	for i, n := range h.nodes {
		if n != nil {
			n.Close()
			h.nodes[i] = nil
		}
	}
}

// ClusterCounts aggregates conservation counters cluster-wide.
// PerNode holds every node that ever served (killed ones included —
// their final counts still participate in the identity).
type ClusterCounts struct {
	PerNode                                                []serve.Counts
	Sent, Answered, Degraded, Shed, Forwarded, ForwardedIn int64
}

// Add folds one node's counts in.
func (c *ClusterCounts) Add(n serve.Counts) {
	c.PerNode = append(c.PerNode, n)
	c.Sent += n.Sent
	c.Answered += n.Answered
	c.Degraded += n.Degraded
	c.Shed += n.Shed
	c.Forwarded += n.Forwarded
	c.ForwardedIn += n.ForwardedIn
}

// Conserved reports the cluster-wide outcome identity.
func (c ClusterCounts) Conserved() bool {
	return c.Sent == c.Answered+c.Degraded+c.Shed+c.Forwarded
}

// HopConserved reports the hop-by-hop forward identity of a quiesced,
// failure-free run: every forwarded outcome was admitted somewhere as
// a forwarded-in. (Under churn the identity relaxes to Forwarded ≤
// ForwardedIn: a peer can admit a forward whose origin then sheds on
// deadline or falls back when the response is lost.)
func (c ClusterCounts) HopConserved() bool {
	return c.Forwarded == c.ForwardedIn
}

// Counts aggregates the live nodes plus any extra (killed) counts the
// caller retained.
func (h *Harness) Counts(extra ...serve.Counts) ClusterCounts {
	var c ClusterCounts
	for _, n := range h.nodes {
		if n != nil {
			c.Add(n.Counts())
		}
	}
	for _, e := range extra {
		c.Add(e)
	}
	return c
}
