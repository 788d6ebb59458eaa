package cluster

import (
	"context"
	"time"

	"repro/internal/dht"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

// forwarder implements serve.Forwarder on top of the node: it decides
// for each admitted request whether this node answers or the query
// takes one more hop along the Koorde walk toward its owner. It is
// the Node under a different method set, installed into the embedded
// server's Config.
type forwarder Node

// fnv64a hashes the placement-key bytes.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// placementKey maps a query to its identifier-space word: FNV-64a
// over the canonical cache-key bytes, reduced onto DG(2,k). Hashing
// the cache key makes the partition exactly a partition of the cache
// key space — each node's LRU holds its own slice, so the cluster
// cache is additive.
func (n *Node) placementKey(q serve.Query) (word.Word, error) {
	rank := fnv64a(q.AppendKey(nil)) % n.space
	return word.Unrank(idBase, n.cfg.IDLen, rank)
}

// holdsLocked reports whether this node is in the replica set of key:
// the key's owner or one of the Replication-1 ring successors after
// it. Caller holds n.mu.
func (n *Node) holdsLocked(key word.Word) bool {
	owner, err := n.ring.Owner(key)
	if err != nil {
		return true // malformed key: answer locally, never loop
	}
	node := owner
	for i := 0; i < n.cfg.Replication; i++ {
		if node == n.self {
			return true
		}
		node = node.Successor()
		if node == owner {
			break // wrapped: fewer nodes than replicas
		}
	}
	return false
}

// Forward routes one request. The walk is distributed literally: this
// node applies one dht.Ring.Step and ships the resulting WalkState to
// the next real node as a plain wire request, so the chain of
// forwards visits exactly the nodes Lookup would visit in-process —
// same owners, same hop counts.
func (f *forwarder) Forward(ctx context.Context, req serve.Request, qs []serve.Query, deadline time.Time, tr *obs.ReqTrace) (serve.Response, serve.ForwardVerdict) {
	n := (*Node)(f)

	// Batches stay local: their sub-queries hash to many owners, and
	// any node computes any answer — splitting a batch across the
	// fabric would trade one admission for Q forwards.
	if len(req.Batch) > 0 || len(qs) != 1 {
		return serve.Response{}, serve.ForwardLocal
	}

	var st dht.WalkState
	var origin string
	hops, ttl := 0, maxHops(n.cfg.IDLen)
	if fwd := req.Fwd; fwd != nil {
		// A mid-walk arrival: resume the state from the wire.
		hops, ttl = fwd.Hops, fwd.TTL
		if fwd.Final || ttl <= 0 {
			return n.localVerdict(hops)
		}
		key, err := word.Parse(idBase, fwd.Key)
		if err != nil || key.Len() != n.cfg.IDLen {
			return n.localVerdict(hops)
		}
		imag, err := word.Parse(idBase, fwd.Imag)
		if err != nil || imag.Len() != n.cfg.IDLen {
			return n.localVerdict(hops)
		}
		origin = fwd.Origin
		st = dht.WalkState{Key: key, Imaginary: imag, Remaining: fwd.Remaining}
		n.mu.Lock()
		if n.closed || n.holdsLocked(st.Key) {
			n.mu.Unlock()
			return n.localVerdict(hops)
		}
		n.mu.Unlock()
	} else {
		key, err := n.placementKey(qs[0])
		if err != nil {
			return serve.Response{}, serve.ForwardLocal
		}
		origin = n.idStr
		n.mu.Lock()
		if n.closed || n.holdsLocked(key) {
			n.mu.Unlock()
			return serve.Response{}, serve.ForwardLocal
		}
		wst, werr := n.ring.StartWalkOptimized(n.self, key)
		n.mu.Unlock()
		if werr != nil {
			return serve.Response{}, serve.ForwardLocal
		}
		st = wst
	}

	// One Step of the walk at this node.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return n.localVerdict(hops)
	}
	sr, err := n.ring.Step(n.self, st)
	var next Member
	nextOK := false
	if err == nil && sr.Next != nil && sr.Next != n.self {
		next, nextOK = n.mem.find(sr.Next.ID().String())
	}
	n.mu.Unlock()
	if err != nil || !nextOK {
		return n.localVerdict(hops)
	}

	remaining := time.Until(deadline)
	if remaining <= 0 {
		n.m.fwdDeadline.Inc()
		return serve.Response{}, serve.ForwardDeadline
	}
	out := req
	out.Fwd = &serve.ForwardState{
		Origin:    origin,
		Key:       st.Key.String(),
		Imag:      sr.State.Imaginary.String(),
		Remaining: sr.State.Remaining,
		Final:     sr.Final,
		Hops:      hops + 1,
		TTL:       ttl - 1,
	}
	// The deadline travels as remaining budget, not an absolute
	// instant, so it is immune to clock skew between nodes; each hop
	// re-anchors it on its own clock.
	ms := remaining.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	out.DeadlineMS = ms

	client, cerr := n.peerClient(next.ClientAddr)
	if cerr != nil {
		n.forwardFailed(next)
		return n.localVerdict(hops)
	}
	t0 := time.Now()
	resp, derr := client.Do(ctx, out)
	tr.AddSpan(obs.SpanForward, t0, time.Now(), obs.LayerNone, next.ID)
	if derr != nil {
		if ctx.Err() != nil {
			// The request's deadline expired mid-forward: shed here,
			// with reason deadline, instead of letting the client's
			// origin time out on its own.
			n.m.fwdDeadline.Inc()
			return serve.Response{}, serve.ForwardDeadline
		}
		n.dropClient(next.ClientAddr, client)
		n.forwardFailed(next)
		return n.localVerdict(hops)
	}
	n.m.forwarded.Inc()
	return resp, serve.ForwardProxied
}

// forwardFailed records a dead peer: fallback metric now, eviction
// gossip in the background.
func (n *Node) forwardFailed(m Member) {
	n.m.fallback.Inc()
	n.markFailed(m.ID)
}

// localVerdict resolves a forwarded-in request locally, observing its
// inter-node hop count (the walk ended here — by ownership, final
// hop, TTL, or fallback).
func (n *Node) localVerdict(hops int) (serve.Response, serve.ForwardVerdict) {
	if hops > 0 {
		n.m.forwardHops.Observe(float64(hops))
		n.hopSum.Add(int64(hops))
		n.hopCount.Add(1)
	}
	return serve.Response{}, serve.ForwardLocal
}
