package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// settleGoroutines waits for the goroutine count to return to at most
// baseline plus a small slack.
func settleGoroutines(t *testing.T, baseline int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// writePartialFrame writes a frame header promising n bytes followed
// by fewer — the wire state of a peer that died mid-frame.
func writePartialFrame(t *testing.T, conn net.Conn, promised, delivered int) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(promised))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, delivered)); err != nil {
		t.Fatal(err)
	}
}

// TestPeerDeadlineUnparksHalfOpenControlConn is the control-plane half
// of the peer-I/O hang bugfix: a connection that goes silent mid-frame
// used to park its handlePeer goroutine forever; with PeerIOTimeout it
// must be reaped, the node staying fully responsive.
func TestPeerDeadlineUnparksHalfOpenControlConn(t *testing.T) {
	h := testHarness(t, HarnessConfig{
		Nodes:         1,
		Seed:          31,
		IDLen:         8,
		PeerIOTimeout: 200 * time.Millisecond,
	})
	n0 := h.Node(0)
	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	// Half-open control connection: a frame header promising 100 bytes,
	// 10 delivered, then silence — the connection stays open.
	conn, err := h.Transport.Dial(n0.PeerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writePartialFrame(t, conn, 100, 10)

	// The handler must give up within the deadline (plus slack), not
	// park forever holding the goroutine.
	settleGoroutines(t, before, 5*time.Second)

	// And the node is still serving control RPCs.
	st, err := RemoteStatus(h.Transport, n0.PeerAddr(), time.Second)
	if err != nil {
		t.Fatalf("node wedged after half-open conn: %v", err)
	}
	if len(st.Membership.Members) != 1 {
		t.Fatalf("membership = %+v", st.Membership)
	}
}

// TestPeerErrorEnvelopeType pins the unmarshal-error reply: the frame
// that failed to decode cannot supply a type, so the reply must carry
// the dedicated error type instead of echoing "".
func TestPeerErrorEnvelopeType(t *testing.T) {
	h := testHarness(t, HarnessConfig{Nodes: 1, Seed: 33, IDLen: 8})
	conn, err := h.Transport.Dial(h.Node(0).PeerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	garbage := []byte("this is not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	body, err := serve.ReadFrame(conn, maxEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	var resp envelope
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != envError {
		t.Fatalf("error reply type = %q, want %q", resp.Type, envError)
	}
	if resp.Err == "" {
		t.Fatal("error reply carries no error text")
	}
}

// TestSingleShardRejected pins the E23 finding as a guard: a forward
// parks its worker shard for a full round trip, so one shard is a
// self-deadlock waiting to happen — explicit single-shard configs are
// refused outright.
func TestSingleShardRejected(t *testing.T) {
	mem := serve.NewMemTransport()
	_, err := New(Config{
		ClientAddr: "c",
		PeerAddr:   "p",
		Transport:  mem,
		Serve:      serve.Config{Shards: 1},
	})
	if !errors.Is(err, ErrSingleShard) {
		t.Fatalf("Shards=1 accepted (err=%v), want ErrSingleShard", err)
	}
}

// TestForwardUnsticksFromStalledPeer is the data-plane half of the
// peer-I/O hang bugfix under -race: a member whose query listener
// accepts and then never reads a byte used to park a worker shard in
// the forward's frame write until TCP keepalive (forever, on a pipe).
// With the pooled client's write timeout the forward fails fast, the
// peer is marked failed, and the query is answered locally — within
// its deadline, with conservation exact and no leaked goroutines.
func TestForwardUnsticksFromStalledPeer(t *testing.T) {
	mem := serve.NewMemTransport()
	n0, err := New(Config{
		ID:            "00000000",
		IDLen:         8,
		ClientAddr:    "real-c",
		PeerAddr:      "real-p",
		Transport:     mem,
		Replication:   1,
		PeerIOTimeout: 250 * time.Millisecond,
		Serve: serve.Config{
			Shards:          2,
			QueueDepth:      64,
			DefaultDeadline: 5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()

	// The stalled peer: a query listener that accepts connections and
	// never reads from them, wedging any writer on the synchronous
	// pipe. No control listener — membership pushes to it just fail,
	// which broadcast ignores.
	stalledLn, err := mem.Listen("stalled-c")
	if err != nil {
		t.Fatal(err)
	}
	defer stalledLn.Close()
	stopAccept := make(chan struct{})
	defer close(stopAccept)
	go func() {
		for {
			conn, err := stalledLn.Accept()
			if err != nil {
				return
			}
			go func() {
				<-stopAccept
				conn.Close()
			}()
		}
	}()

	// Register the stalled peer as a member through the join RPC, as a
	// joining node would.
	fake := Member{ID: "11111111", ClientAddr: "stalled-c", PeerAddr: "stalled-p"}
	resp, err := rpcOverTransport(mem, "real-p", time.Second, envelope{Type: envJoin, From: fake.ID, Member: &fake})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("join: %s", resp.Err)
	}

	time.Sleep(50 * time.Millisecond)
	before := runtime.NumGoroutine()

	c, err := serve.DialTransport(mem, "real-c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Half the key space places on the stalled member (R=1, two
	// members): drive enough distinct queries that several must
	// forward — every one must still resolve within its deadline.
	rngWords := []string{
		"00001111", "11110000", "01010101", "10101010",
		"00110011", "11001100", "01100110", "10011001",
	}
	start := time.Now()
	for i, sw := range rngWords {
		for j, dw := range rngWords {
			if i == j {
				continue
			}
			src := word.MustParse(2, sw)
			dst := word.MustParse(2, dw)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			resp, err := c.Do(ctx, serve.DistanceRequest(src, dst, serve.Undirected))
			cancel()
			if err != nil {
				t.Fatalf("query %s→%s: %v (worker parked on stalled peer?)", sw, dw, err)
			}
			if resp.Status != serve.StatusOK {
				t.Fatalf("query %s→%s: %+v", sw, dw, resp)
			}
		}
	}
	elapsed := time.Since(start)

	// The first forward pays one write timeout before falling back;
	// after markFailed the stalled peer is out of the ring and
	// everything is local. Far more than a few timeouts worth of
	// elapsed time means workers were parking.
	if elapsed > 5*time.Second {
		t.Fatalf("56 queries took %v: forwards are parking workers", elapsed)
	}

	// The stalled peer must have been judged dead and evicted.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := n0.Membership().find(fake.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled peer still in membership after write-timeout fallback")
		}
		time.Sleep(20 * time.Millisecond)
	}

	counts := n0.Counts()
	if !counts.Conserved() {
		t.Fatalf("conservation broken after stalled-peer fallback: %+v", counts)
	}
	if counts.Answered+counts.Degraded == 0 {
		t.Fatalf("nothing answered: %+v", counts)
	}

	c.Close()
	settleGoroutines(t, before, 5*time.Second)
}

// TestStormConservation drives a churn storm — a correlated kill burst
// plus joins under live load — and requires the ≤-form cluster
// identities to hold once quiesced, with the victims' final counts
// folded in.
func TestStormConservation(t *testing.T) {
	h := testHarness(t, HarnessConfig{
		Nodes:         6,
		Seed:          47,
		IDLen:         10,
		Replication:   2,
		PeerIOTimeout: 500 * time.Millisecond,
		Serve: serve.Config{
			Shards:          2,
			QueueDepth:      128,
			CacheSize:       128,
			DefaultDeadline: 2 * time.Second,
		},
	})

	stop := make(chan struct{})
	errCh := make(chan error, 2)
	for d := 0; d < 2; d++ {
		c, err := h.Client(d)
		if err != nil {
			t.Fatal(err)
		}
		go func(d int, c *serve.Client) {
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(900 + d)))
			n := 0
			for {
				select {
				case <-stop:
					errCh <- nil
					return
				default:
				}
				src := word.Random(2, 10, rng)
				dst := word.Random(2, 10, rng)
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				_, err := c.Do(ctx, serve.DistanceRequest(src, dst, serve.Undirected))
				cancel()
				if err != nil {
					// Driver nodes are protected from the storm, so
					// their connections must stay alive.
					errCh <- fmt.Errorf("driver %d request %d: %w", d, n, err)
					return
				}
				n++
			}
		}(d, c)
	}

	time.Sleep(100 * time.Millisecond)
	killed, err := h.Storm(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(killed) != 2 {
		t.Fatalf("storm killed %d nodes, want 2", len(killed))
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	for d := 0; d < 2; d++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatalf("cluster did not re-converge after storm: %v", err)
	}

	// Quiesce, then check the identities: exact outcome conservation
	// (including the dead), and the ≤-form hop identity (a killed peer
	// can admit a forward whose origin fell back).
	deadline := time.Now().Add(5 * time.Second)
	for {
		agg := h.Counts(killed...)
		if agg.Conserved() && agg.Forwarded <= agg.ForwardedIn {
			for _, pn := range agg.PerNode {
				if !pn.Conserved() {
					t.Fatalf("per-node conservation broken: %+v", pn)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster identities violated after storm: %+v", agg)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestWrongfulEvictionRejoins pins the gossip liveness fix: a live
// node evicted by a peer (a transient forward failure judged it dead)
// must rejoin under a bumped version, and the whole cluster must
// re-converge on a view that contains it. Before the fix the evicted
// node silently retained itself at the peers' version — same
// (version, origin), different member set — a divergence no
// push-pull exchange could ever repair.
func TestWrongfulEvictionRejoins(t *testing.T) {
	h, err := NewHarness(HarnessConfig{
		Nodes:          3,
		Seed:           71,
		IDLen:          10,
		Replication:    1,
		GossipInterval: 20 * time.Millisecond,
		Serve: serve.Config{
			Shards: 2, QueueDepth: 64,
			DefaultDeadline: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	victim := h.Node(2).ID().String()
	h.Node(0).markFailed(victim)
	if _, ok := h.Node(0).Membership().find(victim); ok {
		t.Fatal("markFailed did not evict the victim from node 0's view")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		healed := h.WaitConverged(time.Second) == nil
		for i := 0; healed && i < 3; i++ {
			_, ok := h.Node(i).Membership().find(victim)
			healed = ok
		}
		if healed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wrongfully evicted node never rejoined; views: %+v, %+v, %+v",
				h.Node(0).Membership(), h.Node(1).Membership(), h.Node(2).Membership())
		}
	}
}
