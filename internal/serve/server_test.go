package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// newTestServer builds a server with test-friendly defaults and
// arranges its shutdown.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerEndToEnd exercises every query kind over a SelfClient and
// checks payloads against the core oracles.
func TestServerEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, CacheSize: 64, Registry: obs.NewRegistry()})
	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	src := mustWord(t, 2, "011010")
	dst := mustWord(t, 2, "110100")

	resp, err := c.Do(ctx, DistanceRequest(src, dst, Undirected))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("distance: %+v, %v", resp, err)
	}
	wantDist := oracleDistance(t, Undirected, src, dst)
	if resp.Distance != wantDist {
		t.Fatalf("distance = %d, want %d", resp.Distance, wantDist)
	}

	resp, err = c.Do(ctx, RouteRequest(src, dst, Undirected))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("route: %+v, %v", resp, err)
	}
	if len(resp.Path) != wantDist {
		t.Fatalf("route path %v, want %d hops", resp.Path, wantDist)
	}
	for _, hs := range resp.Path {
		if _, err := ParseHop(hs); err != nil {
			t.Fatalf("route hop %q: %v", hs, err)
		}
	}

	resp, err = c.Do(ctx, NextHopRequest(src, src, Directed))
	if err != nil || resp.Status != StatusOK || !resp.Done {
		t.Fatalf("self next hop: %+v, %v", resp, err)
	}

	// The same distance query again must be a cache hit.
	resp, err = c.Do(ctx, DistanceRequest(src, dst, Undirected))
	if err != nil || !resp.Cached || resp.Distance != wantDist {
		t.Fatalf("repeat distance not cached: %+v, %v", resp, err)
	}

	// Batch: sub-responses in order, with sub IDs echoed.
	batch := BatchRequest(
		DistanceRequest(src, dst, Undirected),
		RouteRequest(dst, src, Undirected),
	)
	batch.Batch[0].ID = 71
	batch.Batch[1].ID = 72
	resp, err = c.Do(ctx, batch)
	if err != nil || resp.Status != StatusOK || len(resp.Batch) != 2 {
		t.Fatalf("batch: %+v, %v", resp, err)
	}
	if resp.Batch[0].ID != 71 || resp.Batch[1].ID != 72 {
		t.Fatalf("batch sub IDs = %d, %d", resp.Batch[0].ID, resp.Batch[1].ID)
	}
	if resp.Batch[0].Distance != wantDist {
		t.Fatalf("batch distance = %d, want %d", resp.Batch[0].Distance, wantDist)
	}

	// Malformed request: status error, counted as shed bad_request.
	resp, err = c.Do(ctx, Request{Kind: "distance", D: 2, K: 3, Src: "01", Dst: "999"})
	if err != nil || resp.Status != StatusError || resp.Error == "" {
		t.Fatalf("bad request: %+v, %v", resp, err)
	}

	counts := s.Counts()
	if !counts.Conserved() {
		t.Fatalf("not conserved: %+v", counts)
	}
	if counts.ShedByReason["bad_request"] != 1 {
		t.Fatalf("bad_request shed = %d, want 1: %+v", counts.ShedByReason["bad_request"], counts)
	}
}

// TestServerTCP runs the same protocol over a real TCP listener.
func TestServerTCP(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	src := mustWord(t, 2, "0110")
	dst := mustWord(t, 2, "1011")
	resp, err := c.Do(context.Background(), DistanceRequest(src, dst, Undirected))
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("tcp distance: %+v, %v", resp, err)
	}
	if want := oracleDistance(t, Undirected, src, dst); resp.Distance != want {
		t.Fatalf("tcp distance = %d, want %d", resp.Distance, want)
	}
	c.Close()
	s.Close()
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// blockerDeadlineMS tags requests a stallGate should park.
const blockerDeadlineMS = 60_000

// stallGate is a workerHook that parks tasks tagged with
// blockerDeadlineMS until open() is called. Install it before sending
// any request.
type stallGate struct {
	entered chan struct{} // one token per parked task
	release chan struct{}
	once    sync.Once
}

func newStallGate() *stallGate {
	return &stallGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *stallGate) hook(t *task) {
	if t.req.DeadlineMS == blockerDeadlineMS {
		g.entered <- struct{}{}
		<-g.release
	}
}

// open releases every parked (and future) blocker; safe to call twice.
func (g *stallGate) open() { g.once.Do(func() { close(g.release) }) }

func (g *stallGate) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never entered the stall gate")
	}
}

// sendBlocker parks one worker shard inside the gate and returns the
// channel its eventual response arrives on.
func sendBlocker(t *testing.T, c *Client, g *stallGate) chan Response {
	t.Helper()
	src := mustWord(t, 2, "0101")
	req := DistanceRequest(src, src, Undirected)
	req.DeadlineMS = blockerDeadlineMS
	done := make(chan Response, 1)
	go func() {
		resp, err := c.Do(context.Background(), req)
		if err == nil {
			done <- resp
		}
		close(done)
	}()
	g.waitEntered(t)
	return done
}

// waitFor polls cond instead of sleeping fixed times.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedNeverBlocksAccept parks the only worker, fills the
// depth-one queue, and checks that a brand-new connection still gets
// an immediate queue_full shed instead of a stalled reader.
func TestShedNeverBlocksAccept(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{Shards: 1, QueueDepth: 1})
	s.workerHook = g.hook
	defer g.open()

	a, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = sendBlocker(t, a, g)

	// Fill the single queue slot from connection A.
	src := mustWord(t, 2, "0110")
	filler := DistanceRequest(src, src, Undirected)
	filler.DeadlineMS = blockerDeadlineMS + 1 // generous, but not the blocker tag
	fillerDone := make(chan struct{})
	go func() {
		a.Do(context.Background(), filler)
		close(fillerDone)
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })

	// A fresh connection must be accepted and answered (with a shed)
	// promptly even though no worker can make progress.
	b, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := b.Do(ctx, DistanceRequest(src, src, Undirected))
	if err != nil {
		t.Fatalf("new connection blocked behind stalled workers: %v", err)
	}
	if resp.Status != StatusShed || resp.ShedReason != "queue_full" {
		t.Fatalf("response = %+v, want shed queue_full", resp)
	}

	g.open()
	<-fillerDone
	if c := s.Counts(); !c.Conserved() || c.ShedByReason["queue_full"] != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// TestDeadlineShed checks a request whose deadline expires while
// queued is shed with reason deadline, not computed late.
func TestDeadlineShed(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{Shards: 1, QueueDepth: 8})
	s.workerHook = g.hook
	defer g.open()

	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocked := sendBlocker(t, c, g)

	src := mustWord(t, 2, "0110")
	req := DistanceRequest(src, src, Undirected)
	req.DeadlineMS = 1
	respCh := make(chan Response, 1)
	go func() {
		resp, err := c.Do(context.Background(), req)
		if err == nil {
			respCh <- resp
		}
		close(respCh)
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })
	time.Sleep(5 * time.Millisecond) // let the 1ms deadline lapse
	g.open()

	resp, ok := <-respCh
	if !ok || resp.Status != StatusShed || resp.ShedReason != "deadline" {
		t.Fatalf("response = %+v (ok=%v), want shed deadline", resp, ok)
	}
	if resp, ok := <-blocked; !ok || resp.Status != StatusOK {
		t.Fatalf("blocker response = %+v (ok=%v)", resp, ok)
	}
	if counts := s.Counts(); counts.ShedByReason["deadline"] != 1 || !counts.Conserved() {
		t.Fatalf("counts = %+v", counts)
	}
}

// TestCanceledShed checks that tasks queued by a connection that dies
// before they run are shed with reason canceled.
func TestCanceledShed(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{Shards: 1, QueueDepth: 8})
	// Blockers park on the gate; any other task instead waits for its
	// own connection context, so the worker cannot race ahead of the
	// disconnect below.
	s.workerHook = func(tk *task) {
		if tk.req.DeadlineMS == blockerDeadlineMS {
			g.hook(tk)
			return
		}
		<-tk.ctx.Done()
	}
	defer g.open()

	a, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = sendBlocker(t, a, g)

	b, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	src := mustWord(t, 2, "0110")
	req := DistanceRequest(src, src, Undirected)
	req.DeadlineMS = blockerDeadlineMS + 1
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	go b.Do(ctx, req) // queued behind the blocker, then abandoned
	waitFor(t, func() bool { return len(s.queue) == 1 })
	b.Close() // reader exits -> connection context canceled
	g.open()
	waitFor(t, func() bool {
		return s.Counts().ShedByReason["canceled"] == 1
	})
	if counts := s.Counts(); !counts.Conserved() {
		t.Fatalf("counts = %+v", counts)
	}
}

// TestDegradeLadder drives the queue through both thresholds and
// checks responses visibly degrade — the first dequeue at fill 0.9
// answers layer bounds, the next rungs distance-only, the drained tail
// full fidelity — and that degraded outcomes are counted.
func TestDegradeLadder(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{
		Shards:      1,
		QueueDepth:  10,
		DegradeHigh: 0.5,
	})
	s.workerHook = g.hook
	defer g.open()

	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocked := sendBlocker(t, c, g)

	// Queue 9 route queries behind the parked blocker. The blocker is
	// answered first, at fill 9/10 ≥ 0.9: bounds. Each later dequeue
	// sees the queue one shorter — fills 8..5 (≥ 0.5): distance-only;
	// fills 4..0: full.
	src := mustWord(t, 2, "011010")
	dst := mustWord(t, 2, "110100")
	const n = 9
	var wg sync.WaitGroup
	resps := make([]Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := RouteRequest(src, dst, Undirected)
			req.DeadlineMS = blockerDeadlineMS + 1
			resps[i], errs[i] = c.Do(context.Background(), req)
		}(i)
		// Serialize enqueues so each fill level is deterministic.
		waitFor(t, func() bool { return len(s.queue) == i+1 })
	}
	g.open()
	wg.Wait()

	bresp, ok := <-blocked
	if !ok || bresp.Degrade != "bounds" || bresp.Bounds == nil || bresp.Bounds.Lo != 0 || bresp.Bounds.Hi != 0 {
		t.Fatalf("blocker (self-pair at fill 0.9) = %+v (ok=%v), want bounds [0,0]", bresp, ok)
	}
	wantDist := oracleDistance(t, Undirected, src, dst)
	byDegrade := map[string]int{}
	for i, resp := range resps {
		if errs[i] != nil || resp.Status != StatusOK {
			t.Fatalf("resp %d: %+v, %v", i, resp, errs[i])
		}
		byDegrade[resp.Degrade]++
		switch resp.Degrade {
		case "distance":
			if resp.Path != nil || resp.Distance != wantDist {
				t.Fatalf("distance-only resp %d = %+v", i, resp)
			}
		case "":
			if len(resp.Path) != wantDist {
				t.Fatalf("full resp %d = %+v", i, resp)
			}
		default:
			t.Fatalf("resp %d unexpectedly at rung %q", i, resp.Degrade)
		}
	}
	if byDegrade["distance"] != 4 || byDegrade[""] != 5 {
		t.Fatalf("degrade mix = %v, want 4 distance-only and 5 full", byDegrade)
	}
	counts := s.Counts()
	if counts.Degraded != 5 || !counts.Conserved() { // blocker + 4 distance-only
		t.Fatalf("counts = %+v, want Degraded 5", counts)
	}
}

// TestServerClosed checks post-Close behavior of every entry point.
func TestServerClosed(t *testing.T) {
	s := NewServer(Config{Shards: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.SelfClient(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("SelfClient after Close: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Close: %v", err)
	}
}

// TestConservationUnderChurn hammers one server with many clients,
// mixed deadlines, abrupt disconnects, and both cache settings, then
// checks the exact outcome conservation. Meant to run with -race.
func TestConservationUnderChurn(t *testing.T) {
	for _, cacheSize := range []int{0, 256} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			s := newTestServer(t, Config{
				Shards:     2,
				QueueDepth: 8, // small: force queue_full sheds
				CacheSize:  cacheSize,
				Registry:   obs.NewRegistry(),
			})
			const clients = 8
			const perClient = 60
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := s.SelfClient()
					if err != nil {
						t.Error(err)
						return
					}
					defer c.Close()
					src := mustWord(t, 2, "011010")
					dst := mustWord(t, 2, "110100")
					for n := 0; n < perClient; n++ {
						var req Request
						switch n % 3 {
						case 0:
							req = DistanceRequest(src, dst, Undirected)
						case 1:
							req = RouteRequest(src, dst, Undirected)
						default:
							req = NextHopRequest(src, dst, Directed)
						}
						if n%5 == 0 {
							req.DeadlineMS = 1 // deadline churn
						}
						ctx, cancel := context.WithTimeout(context.Background(), time.Second)
						c.Do(ctx, req)
						cancel()
						if i%4 == 3 && n == perClient/2 {
							c.Close() // abrupt mid-stream disconnect
							return
						}
					}
				}(i)
			}
			wg.Wait()
			// Outcomes may still be in flight for the abruptly-closed
			// connections; conservation must hold once they settle, and
			// then nothing new is admitted.
			waitFor(t, func() bool {
				c := s.Counts()
				return c.Sent > 0 && c.Conserved()
			})
			counts := s.Counts()
			if counts.Sent > clients*perClient {
				t.Fatalf("Sent = %d > offered %d", counts.Sent, clients*perClient)
			}
			t.Logf("cache=%d counts: %+v", cacheSize, counts)
		})
	}
}

// TestLevelStrings pins the wire names of the enums.
func TestLevelStrings(t *testing.T) {
	if LevelFull.DegradeString() != "" || LevelDistance.DegradeString() != "distance" || LevelBounds.DegradeString() != "bounds" {
		t.Fatal("DegradeString mismatch")
	}
	if KindRoute.String() != "route" || Undirected.String() != "undirected" || Directed.String() != "directed" {
		t.Fatal("enum String mismatch")
	}
}

// rawConn dials the server's loopback transport for tests that speak
// frames directly, without a Client.
func rawConn(t *testing.T, s *Server) net.Conn {
	t.Helper()
	conn, err := s.Loopback().Dial("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// readResponse reads and decodes one response frame.
func readResponse(t *testing.T, conn net.Conn) Response {
	t.Helper()
	body, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	resp, err := ParseResponse(body)
	if err != nil {
		t.Fatalf("decoding the reply %q: %v", body, err)
	}
	return resp
}

// TestUndecodableRequestEchoesID checks a frame that fails to decode
// after its id was read is answered under that id, so a caller that
// matches replies by id sees its error, and is counted once as
// bad_request.
func TestUndecodableRequestEchoesID(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	conn := rawConn(t, s)
	body := []byte(`{"id":7,"kind":"route","d":"two"}`)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	resp := readResponse(t, conn)
	if resp.ID != 7 || resp.Status != StatusError || resp.Error == "" {
		t.Fatalf("reply = %+v, want status error under id 7", resp)
	}
	counts := s.Counts()
	if counts.Sent != 1 || counts.ShedByReason["bad_request"] != 1 || !counts.Conserved() {
		t.Fatalf("counts = %+v, want one request shed bad_request", counts)
	}
}

// TestLoneRequestFlushed checks the coalescing writer never strands a
// reply in its buffer: each request sent alone on an idle connection
// is answered before the next is sent.
func TestLoneRequestFlushed(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	conn := rawConn(t, s)
	src, dst := mustWord(t, 2, "0110"), mustWord(t, 2, "1011")
	want := oracleDistance(t, Undirected, src, dst)
	for i := uint64(1); i <= 3; i++ {
		req := DistanceRequest(src, dst, Undirected)
		req.ID = i
		if err := WriteFrame(conn, &req); err != nil {
			t.Fatal(err)
		}
		if resp := readResponse(t, conn); resp.ID != i || resp.Distance != want {
			t.Fatalf("reply %d = %+v, want distance %d", i, resp, want)
		}
	}
}

// TestPipelinedRequests sends 64 requests at once over one TCP client:
// replies that share a flush must all be delivered and matched.
func TestPipelinedRequests(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, CacheSize: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	src := mustWord(t, 2, "01101001")
	dsts := make([]word.Word, n)
	dists := make([]int, n)
	for i := range dsts {
		dst, err := word.Unrank(2, 8, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		dsts[i], dists[i] = dst, oracleDistance(t, Undirected, src, dst)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := c.Do(ctx, RouteRequest(src, dsts[i], Undirected))
			switch {
			case err != nil:
				errs <- err
			case resp.Status != StatusOK || len(resp.Path) != dists[i]:
				errs <- fmt.Errorf("request %d: reply %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if counts := s.Counts(); counts.Sent != n || counts.Answered != n {
		t.Fatalf("counts = %+v, want %d answered", counts, n)
	}
}
