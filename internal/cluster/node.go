package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/serve"
	"repro/internal/word"
)

// ErrNodeClosed is returned by operations on a closed node.
var ErrNodeClosed = errors.New("cluster: node closed")

// Node is one cluster member: an embedded serve.Server whose
// Forwarder routes misses over the de Bruijn fabric, plus a control
// listener for membership traffic.
type Node struct {
	cfg   Config
	id    word.Word
	idStr string
	space uint64 // d^k of the identifier space
	srv   *serve.Server
	m     clusterMetrics

	clientLn net.Listener
	peerLn   net.Listener

	mu      sync.Mutex
	mem     Membership
	ring    *dht.Ring
	self    *dht.Node
	clients map[string]*serve.Client // peer ClientAddr → pooled connection
	closed  bool

	// hopSum/hopCount aggregate the inter-node hop counts of
	// forwarded queries answered here (the histogram's raw moments,
	// exposed via Status for oracles that need exact means).
	hopSum   atomic.Int64
	hopCount atomic.Int64

	bg   sync.WaitGroup // broadcast goroutines
	gw   sync.WaitGroup // the anti-entropy gossip loop
	stop chan struct{}  // closed by Close; parks the gossip loop
}

// New boots a node: listeners up, server answering, membership either
// standalone or joined through cfg.Seeds. On join-ID collision the
// derived identifier is re-derived with an attempt counter; an
// explicit Config.ID collision is an error (the operator asked for an
// identity another node holds).
func New(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		m:       newClusterMetrics(cfg.Serve.Registry),
		clients: make(map[string]*serve.Client),
		stop:    make(chan struct{}),
	}
	size, _ := word.Count(idBase, cfg.IDLen)
	n.space = uint64(size)
	if cfg.ID != "" {
		n.id, err = word.Parse(idBase, cfg.ID)
		if err != nil {
			return nil, fmt.Errorf("cluster: Config.ID: %w", err)
		}
		if n.id.Len() != cfg.IDLen {
			return nil, fmt.Errorf("cluster: Config.ID %q is not length %d", cfg.ID, cfg.IDLen)
		}
	} else {
		n.id = DeriveID(cfg.IDLen, cfg.ClientAddr, 0)
	}
	n.idStr = n.id.String()

	n.clientLn, err = cfg.Transport.Listen(cfg.ClientAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: client listener: %w", err)
	}
	n.peerLn, err = cfg.Transport.Listen(cfg.PeerAddr)
	if err != nil {
		n.clientLn.Close()
		return nil, fmt.Errorf("cluster: peer listener: %w", err)
	}
	// Listeners may have resolved ephemeral addresses ("mem:0",
	// ":0"); the bound ones are what peers must dial.
	n.cfg.ClientAddr = n.clientLn.Addr().String()
	n.cfg.PeerAddr = n.peerLn.Addr().String()

	serveCfg := cfg.Serve
	serveCfg.Forwarder = (*forwarder)(n)
	n.srv = serve.NewServer(serveCfg)

	if err := n.bootstrap(); err != nil {
		n.srv.Close()
		n.clientLn.Close()
		n.peerLn.Close()
		return nil, err
	}
	go n.srv.Serve(n.clientLn)
	go n.servePeers()
	if cfg.GossipInterval > 0 {
		n.gw.Add(1)
		go n.gossipLoop()
	}
	return n, nil
}

// bootstrap establishes the initial membership: standalone when no
// seed answers (or none is configured), otherwise the view returned
// by the join RPC.
func (n *Node) bootstrap() error {
	self := Member{ID: n.idStr, ClientAddr: n.cfg.ClientAddr, PeerAddr: n.cfg.PeerAddr}
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		joined := false
		for _, seed := range n.cfg.Seeds {
			mem, err := n.joinVia(seed, self)
			if err != nil {
				if errors.Is(err, errIDCollision) && n.cfg.ID == "" {
					// Derived identity taken: re-derive and retry the
					// whole seed list under the new one.
					n.id = DeriveID(n.cfg.IDLen, n.cfg.ClientAddr, attempt+1)
					n.idStr = n.id.String()
					self.ID = n.idStr
					lastErr = err
					break
				}
				lastErr = err
				continue
			}
			n.mu.Lock()
			err = n.applyMembershipLocked(mem)
			n.mu.Unlock()
			if err != nil {
				return err
			}
			joined = true
			break
		}
		if joined {
			return nil
		}
		if lastErr == nil || !errors.Is(lastErr, errIDCollision) {
			break
		}
	}
	if len(n.cfg.Seeds) > 0 && lastErr != nil {
		return fmt.Errorf("cluster: join failed: %w", lastErr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applyMembershipLocked(Membership{
		Version: 1,
		Origin:  n.idStr,
		Members: []Member{self},
	})
}

// applyMembershipLocked installs a view if it supersedes the current
// one, rebuilding the ring. Caller holds n.mu.
func (n *Node) applyMembershipLocked(mem Membership) error {
	if !mem.Newer(n.mem) {
		return nil
	}
	rejoin := false
	if _, ok := mem.find(n.idStr); !ok {
		// A view that evicts this node: a peer judged it dead after a
		// failed forward, but this node is demonstrably alive. Rejoin
		// by installing the peers' view with ourselves re-added under
		// a bumped version, and gossip it back. Retaining self without
		// the bump would leave this view permanently divergent — same
		// version and origin as the peers', different member set — a
		// state no push-pull exchange can repair. A transiently flaky
		// node may flap (evict, rejoin, evict…), but every round is a
		// strictly newer view, so gossip converges as soon as the
		// forwards stop failing.
		mem.Version++
		mem.Origin = n.idStr
		mem.Members = mem.withMember(Member{ID: n.idStr, ClientAddr: n.cfg.ClientAddr, PeerAddr: n.cfg.PeerAddr})
		rejoin = true
	}
	ids := make([]word.Word, 0, len(mem.Members))
	for _, m := range mem.Members {
		w, err := word.Parse(idBase, m.ID)
		if err != nil {
			return fmt.Errorf("cluster: member id %q: %w", m.ID, err)
		}
		ids = append(ids, w)
	}
	ring, err := dht.NewRing(idBase, n.cfg.IDLen, ids)
	if err != nil {
		return fmt.Errorf("cluster: membership ring: %w", err)
	}
	self, ok := ring.NodeAt(n.id)
	if !ok {
		return fmt.Errorf("cluster: own id %s missing from ring", n.idStr)
	}
	n.mem = mem
	n.ring = ring
	n.self = self
	n.m.members.Set(float64(len(mem.Members)))
	n.m.version.Set(float64(mem.Version))
	if rejoin {
		n.broadcastLocked()
	}
	return nil
}

// bumpLocked stamps a new view with the given member list and
// broadcasts it. Caller holds n.mu.
func (n *Node) bumpLocked(members []Member) error {
	next := Membership{Version: n.mem.Version + 1, Origin: n.idStr, Members: members}
	if err := n.applyMembershipLocked(next); err != nil {
		return err
	}
	n.broadcastLocked()
	return nil
}

// broadcastLocked pushes the current view to every other member,
// asynchronously (failures are ignored here; the forwarding path
// detects dead peers and the anti-entropy loop repairs lost pushes).
// The exchange is push-pull: a peer holding a newer view returns it,
// and the returned view is installed here. Caller holds n.mu.
func (n *Node) broadcastLocked() {
	view := n.mem
	for _, m := range view.Members {
		if m.ID == n.idStr {
			continue
		}
		addr := m.PeerAddr
		n.bg.Add(1)
		go func() {
			defer n.bg.Done()
			n.pushView(addr, view)
		}()
	}
}

// pushView sends one membership view to a peer and installs whatever
// (possibly newer) view the peer replies with. Errors are ignored:
// the push is repaired by the next anti-entropy tick.
func (n *Node) pushView(addr string, view Membership) {
	env := envelope{Type: envMembership, From: n.idStr, Mem: &view}
	reply, err := n.peerRPC(addr, env)
	if err != nil || reply.Mem == nil {
		return
	}
	n.mu.Lock()
	if !n.closed {
		_ = n.applyMembershipLocked(*reply.Mem)
	}
	n.mu.Unlock()
}

// gossipLoop is the anti-entropy pump: every GossipInterval it
// push-pulls the local view with one peer, rotating round-robin
// through the membership. Event-time broadcasts are best-effort — a
// push that races a crash, a join, or a competing same-version bump
// can be lost, and with purely event-driven gossip the cluster would
// then sit divergent until the next membership event. The loop bounds
// that divergence to a few intervals.
func (n *Node) gossipLoop() {
	defer n.gw.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	next := 0
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		view := n.mem
		var peers []string
		for _, m := range view.Members {
			if m.ID != n.idStr {
				peers = append(peers, m.PeerAddr)
			}
		}
		n.mu.Unlock()
		if len(peers) == 0 {
			continue
		}
		n.pushView(peers[next%len(peers)], view)
		next++
	}
}

// ID returns the node's identifier word.
func (n *Node) ID() word.Word { return n.id }

// ClientAddr returns the bound query address; PeerAddr the bound
// control address.
func (n *Node) ClientAddr() string { return n.cfg.ClientAddr }
func (n *Node) PeerAddr() string   { return n.cfg.PeerAddr }

// Server exposes the embedded serve.Server (metrics, traces, counts).
func (n *Node) Server() *serve.Server { return n.srv }

// Counts snapshots the node's serve conservation counters.
func (n *Node) Counts() serve.Counts { return n.srv.Counts() }

// Membership returns the node's current view.
func (n *Node) Membership() Membership {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem
}

// ForwardHopStats returns the sum and count of inter-node hop counts
// of forwarded queries answered at this node — the exact moments
// behind the dn_cluster_forward_hops histogram.
func (n *Node) ForwardHopStats() (sum, count int64) {
	return n.hopSum.Load(), n.hopCount.Load()
}

// Status is the control-plane status document (peer RPC and
// dbserve -status).
type Status struct {
	ID         string       `json:"id"`
	ClientAddr string       `json:"client_addr"`
	PeerAddr   string       `json:"peer_addr"`
	Membership Membership   `json:"membership"`
	Counts     serve.Counts `json:"counts"`
	HopSum     int64        `json:"forward_hop_sum"`
	HopCount   int64        `json:"forward_hop_count"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	sum, count := n.ForwardHopStats()
	return Status{
		ID:         n.idStr,
		ClientAddr: n.cfg.ClientAddr,
		PeerAddr:   n.cfg.PeerAddr,
		Membership: n.Membership(),
		Counts:     n.Counts(),
		HopSum:     sum,
		HopCount:   count,
	}
}

// markFailed removes a peer judged dead (dial or RPC failure on the
// forwarding path) and gossips the shrunken view.
func (n *Node) markFailed(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if _, ok := n.mem.find(id); !ok {
		return
	}
	n.m.failures.Inc()
	_ = n.bumpLocked(n.mem.withoutMember(id))
}

// peerClient returns a pooled client connection to a peer's query
// address, dialing on first use.
func (n *Node) peerClient(addr string) (*serve.Client, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNodeClosed
	}
	if c, ok := n.clients[addr]; ok {
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()
	c, err := serve.DialTransport(n.cfg.Transport, addr)
	if err != nil {
		return nil, err
	}
	// Forward round trips ride this pooled client from worker shards;
	// a peer that dies mid-frame (or stops reading) must fail the
	// write, not park the shard until TCP keepalive.
	c.SetWriteTimeout(n.cfg.PeerIOTimeout)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, ErrNodeClosed
	}
	if prev, ok := n.clients[addr]; ok {
		n.mu.Unlock()
		c.Close()
		return prev, nil
	}
	n.clients[addr] = c
	n.mu.Unlock()
	return c, nil
}

// dropClient discards a pooled connection that returned an error.
func (n *Node) dropClient(addr string, c *serve.Client) {
	n.mu.Lock()
	if n.clients[addr] == c {
		delete(n.clients, addr)
	}
	n.mu.Unlock()
	c.Close()
}

// Leave announces departure (the view without this node is gossiped)
// and shuts the node down cleanly.
func (n *Node) Leave() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNodeClosed
	}
	n.m.leaves.Inc()
	members := n.mem.withoutMember(n.idStr)
	if len(members) > 0 {
		view := Membership{Version: n.mem.Version + 1, Origin: n.idStr, Members: members}
		for _, m := range members {
			addr := m.PeerAddr
			n.bg.Add(1)
			go func() {
				defer n.bg.Done()
				_, _ = n.peerRPC(addr, envelope{Type: envMembership, From: n.idStr, Mem: &view})
			}()
		}
	}
	n.mu.Unlock()
	n.bg.Wait()
	return n.Close()
}

// Close shuts the node down without announcing departure — from the
// peers' point of view this is a crash (connections sever, the next
// forward through this node fails and evicts it). The embedded server
// drains its queue shedding reason shutdown, so the node's
// conservation identity stays exact through the kill.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrNodeClosed
	}
	n.closed = true
	close(n.stop)
	clients := n.clients
	n.clients = nil
	n.mu.Unlock()

	n.clientLn.Close()
	n.peerLn.Close()
	err := n.srv.Close()
	for _, c := range clients {
		c.Close()
	}
	n.bg.Wait()
	n.gw.Wait()
	return err
}

// WaitConverged blocks until every node in views agrees on one
// membership version (and member count), or the timeout elapses.
// Test/harness helper.
func WaitConverged(timeout time.Duration, nodes ...*Node) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		var first Membership
		for i, n := range nodes {
			v := n.Membership()
			if i == 0 {
				first = v
				continue
			}
			if v.Version != first.Version || v.Origin != first.Origin || len(v.Members) != len(first.Members) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d nodes did not converge within %v", len(nodes), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
