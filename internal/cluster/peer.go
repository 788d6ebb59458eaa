package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/serve"
)

// Control-plane envelope types. The peer listener speaks
// length-prefixed JSON envelopes (the serve frame format) — one
// request, one response per frame, multiple RPCs per connection.
const (
	envJoin       = "join"       // Member → Membership (or error)
	envMembership = "membership" // Membership push → ack with local view
	envStatus     = "status"     // → Status
	envPing       = "ping"       // → ping
	envError      = "error"      // reply to a frame that didn't decode
)

// envelope is one control frame.
type envelope struct {
	Type   string      `json:"type"`
	From   string      `json:"from,omitempty"`
	Member *Member     `json:"member,omitempty"`
	Mem    *Membership `json:"membership,omitempty"`
	Status *Status     `json:"status,omitempty"`
	Err    string      `json:"error,omitempty"`
}

// errIDCollision is the join rejection for an identifier already held
// by a different node. The digit string is the whole identity, so the
// wire form is matched by substring.
var errIDCollision = errors.New("cluster: identifier already in use")

// maxEnvelope bounds a control frame (a full membership view of a
// large cluster fits comfortably).
const maxEnvelope = 1 << 20

// servePeers accepts control connections until the listener closes.
func (n *Node) servePeers() {
	for {
		conn, err := n.peerLn.Accept()
		if err != nil {
			return
		}
		go n.handlePeer(conn)
	}
}

// handlePeer answers envelope RPCs on one connection until EOF. Every
// frame read and write carries a deadline: a peer that stalls mid-frame
// — or a half-open connection that will never deliver another byte —
// must not park this goroutine forever, it must surface as an I/O
// error that closes the connection. (The serve data plane has the same
// property via Config.WriteTimeout and the forwarder's client write
// timeout; without deadlines, one wedged peer is a permanent goroutine
// leak per connection.)
func (n *Node) handlePeer(conn net.Conn) {
	defer conn.Close()
	timeout := n.cfg.PeerIOTimeout
	for {
		if timeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(timeout))
		}
		body, err := serve.ReadFrame(conn, maxEnvelope)
		if err != nil {
			return
		}
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil {
			// Reply with the dedicated error type: env.Type came from
			// the frame that failed to decode, so echoing it would
			// always send "".
			if timeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(timeout))
			}
			_ = serve.WriteFrame(conn, envelope{Type: envError, Err: err.Error()})
			return
		}
		if timeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(timeout))
		}
		if err := serve.WriteFrame(conn, n.handleEnvelope(env)); err != nil {
			return
		}
	}
}

// handleEnvelope executes one control RPC.
func (n *Node) handleEnvelope(env envelope) envelope {
	switch env.Type {
	case envJoin:
		if env.Member == nil {
			return envelope{Type: envJoin, Err: "join without member"}
		}
		return n.handleJoin(*env.Member)
	case envMembership:
		if env.Mem == nil {
			return envelope{Type: envMembership, Err: "membership without view"}
		}
		n.mu.Lock()
		err := n.applyMembershipLocked(*env.Mem)
		view := n.mem
		n.mu.Unlock()
		if err != nil {
			return envelope{Type: envMembership, Err: err.Error()}
		}
		return envelope{Type: envMembership, From: n.idStr, Mem: &view}
	case envStatus:
		st := n.Status()
		return envelope{Type: envStatus, From: n.idStr, Status: &st}
	case envPing:
		return envelope{Type: envPing, From: n.idStr}
	default:
		return envelope{Type: env.Type, Err: fmt.Sprintf("unknown envelope type %q", env.Type)}
	}
}

// handleJoin admits a new member and gossips the grown view. An
// identifier held by a different address is rejected — identifiers
// are the placement identity, and silently replacing one would
// reroute another node's key slice.
func (n *Node) handleJoin(m Member) envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	if existing, ok := n.mem.find(m.ID); ok && (existing.ClientAddr != m.ClientAddr || existing.PeerAddr != m.PeerAddr) {
		return envelope{Type: envJoin, Err: errIDCollision.Error()}
	}
	n.m.joins.Inc()
	if err := n.bumpLocked(n.mem.withMember(m)); err != nil {
		return envelope{Type: envJoin, Err: err.Error()}
	}
	view := n.mem
	return envelope{Type: envJoin, From: n.idStr, Mem: &view}
}

// joinVia runs the join RPC against one seed.
func (n *Node) joinVia(seed string, self Member) (Membership, error) {
	resp, err := n.peerRPC(seed, envelope{Type: envJoin, From: self.ID, Member: &self})
	if err != nil {
		return Membership{}, err
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, errIDCollision.Error()) {
			return Membership{}, fmt.Errorf("%w (via %s)", errIDCollision, seed)
		}
		return Membership{}, fmt.Errorf("cluster: join via %s: %s", seed, resp.Err)
	}
	if resp.Mem == nil {
		return Membership{}, fmt.Errorf("cluster: join via %s: empty view", seed)
	}
	return *resp.Mem, nil
}

// peerRPC dials addr's control listener, runs one envelope exchange,
// and closes. Control traffic is rare (joins, leaves, gossip), so
// per-RPC connections keep the failure model trivial: any dead peer
// fails the dial.
func (n *Node) peerRPC(addr string, env envelope) (envelope, error) {
	return rpcOverTransport(n.cfg.Transport, addr, joinTimeout, env)
}

// rpcOverTransport is one envelope exchange against a control listener
// from any client (a node or an external tool).
func rpcOverTransport(tr serve.Transport, addr string, timeout time.Duration, env envelope) (envelope, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return envelope{}, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := serve.WriteFrame(conn, env); err != nil {
		return envelope{}, err
	}
	body, err := serve.ReadFrame(conn, maxEnvelope)
	if err != nil {
		return envelope{}, err
	}
	var resp envelope
	if err := json.Unmarshal(body, &resp); err != nil {
		return envelope{}, err
	}
	return resp, nil
}

// RemoteStatus runs the status RPC against a node's control address —
// the client side of dbserve -status and the CI smoke assertions.
// A non-positive timeout means 5s.
func RemoteStatus(tr serve.Transport, addr string, timeout time.Duration) (Status, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	resp, err := rpcOverTransport(tr, addr, timeout, envelope{Type: envStatus})
	if err != nil {
		return Status{}, err
	}
	if resp.Err != "" {
		return Status{}, fmt.Errorf("cluster: status from %s: %s", addr, resp.Err)
	}
	if resp.Status == nil {
		return Status{}, fmt.Errorf("cluster: status from %s: empty reply", addr)
	}
	return *resp.Status, nil
}
