// Package cluster runs N serving nodes as one logical route-query
// service, routed over its own de Bruijn fabric. Each node owns a
// slice of the query key space by consistent placement on a DG(2,k)
// identifier space — the same space the paper's routing works in —
// and misses are forwarded between nodes with the Koorde walk of
// internal/dht (successor + finger pointers, imaginary de Bruijn
// hops), one dht.Ring.Step per real hop. The system that serves
// queries about de Bruijn routing is itself routed by it.
//
// Any node answers any query: a node that does not hold a key proxies
// the query hop-by-hop toward the owner. Forwards ride the ordinary
// client wire protocol with a resumable ForwardState attached, so every
// hop is a plain admitted request and the serve conservation identity
// extends cluster-wide:
//
//	Σ sent = Σ answered + Σ degraded + Σ shed + Σ forwarded
//
// per node and in sum, always — and hop-by-hop, every forwarded
// outcome at one node is a forwarded_in admission at another, so in a
// quiesced failure-free cluster Σ forwarded = Σ forwarded_in exactly.
// internal/check's cluster oracle gates both.
//
// Placement keys hash the query's canonical cache-key bytes, so the
// partition is exactly a partition of the cache key space: the
// cluster's caches form one additive cluster-wide LRU with no
// duplication (modulo replication). Because any node can compute any
// answer, ownership is a locality optimization, never a liveness
// dependency: a forward that fails — peer crashed, link severed —
// falls back to computing locally, and the failure is gossiped so the
// ring heals.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// Defaults for Config zero values.
const (
	DefaultIDLen       = 16
	DefaultReplication = 2
)

// idBase is the alphabet size of every cluster's identifier space
// DG(2, IDLen): the binary de Bruijn graph the Koorde walk runs on.
const idBase = 2

// joinTimeout bounds each control-plane RPC a node makes: a join
// attempt, a membership push or gossip exchange, a leave broadcast.
const joinTimeout = 5 * time.Second

// maxHops is the forward TTL of a walk started on DG(2, idLen): a node
// receiving an exhausted budget answers locally. It sits comfortably
// above the Koorde walk's own guard for any sane node count.
func maxHops(idLen int) int { return 4*idLen + 16 }

// Config describes one cluster node.
type Config struct {
	// ID is the node's identifier in the DG(2, IDLen) space, as a
	// binary digit string ("0110..."). Empty derives one by hashing
	// ClientAddr — fine for ad-hoc clusters, but explicit IDs are
	// what make placements reproducible across restarts.
	ID string
	// IDLen is the identifier length k of DG(2,k); all nodes of a
	// cluster must agree. Default 16 (65536 identifiers).
	IDLen int
	// ClientAddr is the query listener (the dbserve wire protocol);
	// PeerAddr is the control listener (join/leave/membership/status).
	ClientAddr, PeerAddr string
	// Transport carries both listeners and all outbound connections:
	// serve.TCP for real clusters, serve.NewMemTransport for
	// in-process ones. Required.
	Transport serve.Transport
	// Replication is the replica-set size R: a key is held by its
	// owner plus the R-1 following ring nodes, any of which answers
	// without forwarding. Default 2.
	Replication int
	// Seeds are peer addresses of existing members to join through
	// (tried in order). Empty boots a standalone single-node cluster.
	Seeds []string
	// Serve configures the embedded per-node server. Its Forwarder
	// is owned by the cluster and must be nil; its Registry, when
	// set, also receives the cluster metrics.
	Serve serve.Config
	// PeerIOTimeout bounds every control-plane frame read/write in
	// handlePeer and every data-plane forward frame write (via the
	// pooled peer clients' write timeout). Without it, a peer that
	// stalls or goes half-open mid-frame parks a goroutine — or a
	// worker shard — forever. Default 10s; negative disables (tests
	// only).
	PeerIOTimeout time.Duration
	// GossipInterval paces the anti-entropy loop: each tick the node
	// pushes its membership view to one peer (round-robin) and
	// installs the newer view the reply carries. Event-time
	// broadcasts are best-effort — a push lost to a dying peer or a
	// mid-join race would otherwise leave views divergent forever.
	// Default 100ms; negative disables (tests only).
	GossipInterval time.Duration
}

// ErrSingleShard rejects a cluster node configured with exactly one
// worker shard: a forward parks the shard for a full round trip, so a
// single-shard node deadlocks against itself the moment a forwarded
// request and the request it forwards contend for the only worker
// (the E23 finding). See DESIGN §11.
var ErrSingleShard = errors.New("cluster: Serve.Shards == 1 cannot forward safely; use ≥ 2 shards")

// withDefaults validates and fills cfg.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Transport == nil {
		return cfg, errors.New("cluster: Config.Transport is required")
	}
	if cfg.ClientAddr == "" || cfg.PeerAddr == "" {
		return cfg, errors.New("cluster: ClientAddr and PeerAddr are required")
	}
	if cfg.Serve.Forwarder != nil {
		return cfg, errors.New("cluster: Serve.Forwarder is owned by the cluster")
	}
	if cfg.Serve.Shards == 1 {
		return cfg, ErrSingleShard
	}
	if cfg.Serve.Shards == 0 {
		// The serve default (GOMAXPROCS) resolves to 1 on a single-CPU
		// machine, which is exactly the self-deadlock ErrSingleShard
		// guards against — pin the floor at 2 here.
		cfg.Serve.Shards = runtime.GOMAXPROCS(0)
		if cfg.Serve.Shards < 2 {
			cfg.Serve.Shards = 2
		}
	}
	if cfg.IDLen == 0 {
		cfg.IDLen = DefaultIDLen
	}
	if _, err := word.Count(idBase, cfg.IDLen); err != nil {
		return cfg, fmt.Errorf("cluster: identifier space: %w", err)
	}
	if cfg.Replication == 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.Replication < 1 {
		return cfg, fmt.Errorf("cluster: Replication %d < 1", cfg.Replication)
	}
	if cfg.PeerIOTimeout == 0 {
		cfg.PeerIOTimeout = 10 * time.Second
	}
	if cfg.PeerIOTimeout < 0 {
		cfg.PeerIOTimeout = 0
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = 100 * time.Millisecond
	}
	if cfg.GossipInterval < 0 {
		cfg.GossipInterval = 0
	}
	return cfg, nil
}

// DeriveID hashes seed text into an identifier of DG(2,k) — the
// default node identity (seeded by ClientAddr) and the retry path on
// join collisions (seeded by addr plus an attempt counter).
func DeriveID(k int, seed string, attempt int) word.Word {
	h := uint64(14695981039346656037) // FNV-64a offset
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	h ^= uint64(attempt) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	size, err := word.Count(idBase, k)
	if err != nil {
		panic(err) // caller validated the space
	}
	w, err := word.Unrank(idBase, k, h%uint64(size))
	if err != nil {
		panic(err)
	}
	return w
}
