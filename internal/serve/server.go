package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config tunes a Server. The zero value gets sensible defaults from
// NewServer.
type Config struct {
	// Shards is the number of worker goroutines, each owning one
	// Engine (and hence one core.Kernels). Default GOMAXPROCS.
	Shards int
	// QueueDepth bounds the admission queue; a request arriving while
	// the queue is full is shed immediately (reason queue_full), never
	// blocking the connection reader or the accept loop. Default 1024.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in answers; 0
	// disables caching.
	CacheSize int
	// DefaultDeadline bounds requests that carry no deadline_ms.
	// Default 100ms.
	DefaultDeadline time.Duration
	// WriteTimeout bounds each response frame write. A client that
	// stops reading (or reads one byte a second) otherwise wedges its
	// connection writer, fills the out queue, and parks worker shards
	// in sendResponse until the connection finally dies. On a missed
	// deadline the connection is closed: the slow reader is evicted,
	// its queued tasks shed (reason canceled), conservation intact.
	// Default 30s; negative disables.
	WriteTimeout time.Duration
	// DegradeDetour and DegradeHigh are admission-queue fill
	// fractions (measured when a worker dequeues): at or above Detour,
	// undirected route queries answer with the fault-aware detour path
	// instead of the optimal path; at or above High, route queries
	// degrade to distance-only. At or above degradeCritical (0.90)
	// every query degrades to layer bounds. Defaults 0.60 and 0.75.
	DegradeDetour float64
	DegradeHigh   float64
	// Faults is the failed-link set detour answers route around
	// (shared across shards; mutate it live via FailLink/RepairLink).
	// Nil is valid — the detour rung still serves tree paths.
	Faults *FaultSet
	// Registry receives the dn_serve_* instruments; nil disables
	// metrics (the conservation Counts are kept regardless).
	Registry *obs.Registry
	// TraceSample keeps one request trace in every N (0 disables
	// tracing entirely — the zero-overhead default). The sampling
	// decision is a pure function of (trace id, TraceSeed), so a
	// replayed workload samples the identical request set.
	TraceSample int
	// TraceSeed keys the deterministic sampling decision.
	TraceSeed uint64
	// TraceBufferSize bounds the retained sampled traces served on
	// /debug/traces. Default 256 when tracing is enabled.
	TraceBufferSize int
	// FlightSize is the flight-recorder ring capacity in events; 0
	// disables the recorder (and the anomaly monitor).
	FlightSize int
	// MonitorInterval paces the anomaly monitor windows. Default 100ms.
	MonitorInterval time.Duration
	// Forwarder, when non-nil, is consulted by each worker after the
	// shed checks and before local compute. It may resolve the
	// request remotely (outcome "forwarded"), redirect it, or decline
	// (local compute proceeds). This is the hook internal/cluster
	// plugs the de Bruijn fabric into; a nil Forwarder is the
	// single-node server with unchanged behavior.
	Forwarder Forwarder
}

// Forwarder decides whether a request is answered on this node or by
// a cluster peer. It runs on a worker goroutine with the request's
// remaining deadline; implementations must be safe for concurrent
// use.
type Forwarder interface {
	// Forward may resolve req (whose scalar queries are qs — one
	// element unless the request is a batch) remotely. The returned
	// verdict selects the outcome; for ForwardProxied and
	// ForwardRedirected, resp is sent to the client after the server
	// restamps its ID and trace id. req.TraceID carries the resolved
	// trace id, and tr (non-nil only for sampled requests) receives
	// the forward span.
	Forward(ctx context.Context, req Request, qs []Query, deadline time.Time, tr *obs.ReqTrace) (resp Response, verdict ForwardVerdict)
}

// ForwardVerdict is a Forwarder's decision for one request.
type ForwardVerdict uint8

const (
	// ForwardLocal declines: the request is answered on this node.
	ForwardLocal ForwardVerdict = iota
	// ForwardProxied resolves the request with a peer's response;
	// the outcome is "forwarded".
	ForwardProxied
	// ForwardRedirected resolves the request with a redirect
	// response naming the owner; counted as "forwarded" too (the
	// query left this node unanswered, deliberately).
	ForwardRedirected
	// ForwardDeadline reports the deadline expired mid-forward; the
	// request is shed with reason deadline.
	ForwardDeadline
)

// ErrServerClosed is returned by Serve and SelfClient after Close.
var ErrServerClosed = errors.New("serve: server closed")

// Counts is the conservation snapshot: every admitted request has
// exactly one outcome, so Sent = Answered + Degraded + Shed +
// Forwarded always. ForwardedIn is informational (a subset of Sent,
// not an outcome): it counts admissions that arrived via a cluster
// forward, which is what lets a cluster checker conserve forwards
// hop-by-hop — every forwarded_out at some node is a forwarded_in at
// another.
type Counts struct {
	Sent         int64
	Answered     int64 // full-fidelity answers (cache hits included)
	Degraded     int64 // answered below full fidelity (detour, distance, bounds)
	Shed         int64 // sum over ShedByReason
	Forwarded    int64 // resolved by a cluster peer (proxied or redirected)
	ShedByReason map[string]int64

	ForwardedIn int64 // admissions carrying forward state (subset of Sent)
}

// Conserved reports whether the invariant holds exactly.
func (c Counts) Conserved() bool {
	return c.Sent == c.Answered+c.Degraded+c.Shed+c.Forwarded
}

// task is one admitted request travelling from a connection reader to
// a worker shard.
type task struct {
	req      Request
	q        Query   // scalar kinds
	batch    []Query // kind batch
	deadline time.Time
	start    time.Time
	enq      time.Time // enqueue instant: queue span start
	id       obs.TraceID
	tr       *obs.ReqTrace   // non-nil only for sampled requests
	ctx      context.Context // connection context
	out      chan<- outFrame
	pending  *sync.WaitGroup // connection's in-flight accounting
}

// outFrame pairs a response with the trace that rode the request, so
// the connection writer can record the write span and publish the
// completed trace after the frame hits the wire.
type outFrame struct {
	resp Response
	tr   *obs.ReqTrace
}

// Server is the sharded route-query server. Construct with NewServer,
// feed it listeners via Serve (or in-process clients via SelfClient),
// stop with Close.
type Server struct {
	cfg     Config
	cache   *Cache
	queue   chan *task
	m       serveMetrics
	sampler obs.Sampler
	traces  *obs.TraceBuffer
	flight  *obs.FlightRecorder

	monitorDone chan struct{} // nil without a flight recorder

	sent      atomic.Int64
	answered  atomic.Int64
	degraded  atomic.Int64
	forwarded atomic.Int64
	fwdIn     atomic.Int64
	shedN     [numShedReasons]atomic.Int64

	ctx       context.Context
	cancel    context.CancelFunc
	closeDone chan struct{}

	workers sync.WaitGroup
	conns   sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	open      map[net.Conn]struct{}
	closed    bool

	// workerHook, when set (tests only), runs at the top of every
	// worker dequeue — used to stall shards deterministically.
	workerHook func(*task)
}

// NewServer builds and starts the worker shards. The server is
// immediately ready for SelfClient; call Serve to accept TCP.
func NewServer(cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1024
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 100 * time.Millisecond
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.DegradeDetour <= 0 {
		cfg.DegradeDetour = 0.60
	}
	if cfg.DegradeHigh <= 0 {
		cfg.DegradeHigh = 0.75
	}
	if cfg.TraceBufferSize < 1 {
		cfg.TraceBufferSize = 256
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 100 * time.Millisecond
	}
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheSize, cfg.Registry),
		queue:     make(chan *task, cfg.QueueDepth),
		m:         newServeMetrics(cfg.Registry),
		sampler:   obs.NewSampler(cfg.TraceSample, cfg.TraceSeed),
		flight:    obs.NewFlightRecorder(cfg.FlightSize),
		listeners: make(map[net.Listener]struct{}),
		open:      make(map[net.Conn]struct{}),
		closeDone: make(chan struct{}),
	}
	if s.sampler.Enabled() {
		s.traces = obs.NewTraceBuffer(cfg.TraceBufferSize)
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.workers.Add(cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		go s.worker()
	}
	if s.flight != nil {
		s.monitorDone = make(chan struct{})
		go s.monitor()
	}
	return s
}

// Cache exposes the shared result cache (nil when disabled).
func (s *Server) Cache() *Cache { return s.cache }

// Traces exposes the sampled-trace buffer (nil when tracing is
// disabled) — mount it on the debug mux via obs.DebugOptions.
func (s *Server) Traces() *obs.TraceBuffer { return s.traces }

// Flight exposes the flight recorder (nil when disabled).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// TriggerFlight fires an external anomaly trigger — the hook
// out-of-process checkers (dbserve -selfcheck's conservation
// cross-check) use to freeze the recorder on conditions the server
// cannot see itself. Reports whether this call froze the recorder.
func (s *Server) TriggerFlight(name, detail string, value float64) bool {
	won := s.flight.Trigger(name, detail, value)
	if won {
		s.m.frozen.Set(1)
	}
	if s.flight != nil {
		s.m.reg.Counter(obs.Label(metricTriggers, "trigger", name)).Inc()
	}
	return won
}

// Counts snapshots the conservation accounting.
func (s *Server) Counts() Counts {
	c := Counts{
		Sent:         s.sent.Load(),
		Answered:     s.answered.Load(),
		Degraded:     s.degraded.Load(),
		Forwarded:    s.forwarded.Load(),
		ForwardedIn:  s.fwdIn.Load(),
		ShedByReason: make(map[string]int64, numShedReasons),
	}
	for r := shedReason(0); r < numShedReasons; r++ {
		if v := s.shedN[r].Load(); v != 0 {
			c.ShedByReason[r.String()] = v
			c.Shed += v
		}
	}
	return c
}

// Serve accepts connections on ln until Close (or a listener error)
// and handles each on its own goroutine. It returns ErrServerClosed
// after an orderly Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Close shuts listeners before canceling the server context,
			// so consult the closed flag too.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || s.ctx.Err() != nil {
				return ErrServerClosed
			}
			return err
		}
		s.startConn(conn)
	}
}

// SelfClient returns an in-process client connected over net.Pipe —
// the zero-port path used by tests and the load generator. It is
// exactly DialTransport over the server's Loopback transport.
func (s *Server) SelfClient() (*Client, error) {
	return DialTransport(s.Loopback(), "")
}

// startConn registers and launches one connection handler; it reports
// false when the server is already closed.
func (s *Server) startConn(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return false
	}
	s.open[conn] = struct{}{}
	s.conns.Add(1)
	s.mu.Unlock()
	s.m.conns.Inc()
	go func() {
		defer s.conns.Done()
		s.handleConn(conn)
		s.mu.Lock()
		delete(s.open, conn)
		s.mu.Unlock()
	}()
	return true
}

// Close stops accepting, closes open connections, drains the queue
// (pending tasks are shed with reason shutdown) and waits for every
// goroutine. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone // another Close is (or was) shutting down
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for conn := range s.open {
		conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.conns.Wait()
	close(s.queue)
	s.workers.Wait()
	if s.monitorDone != nil {
		<-s.monitorDone
	}
	close(s.closeDone)
	return nil
}

// monitor is the anomaly loop feeding the flight recorder: each window
// it records the load metrics as flight events and fires a trigger —
// freezing the recorder — on a shed-rate spike, the degrade ladder
// engaging, or window p99 exceeding the default deadline.
func (s *Server) monitor() {
	defer close(s.monitorDone)
	ticker := time.NewTicker(s.cfg.MonitorInterval)
	defer ticker.Stop()
	prev := s.Counts()
	prevLat := s.cfg.Registry.Snapshot().Histogram(metricLatencyNs)
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
		cur := s.Counts()
		curLat := s.cfg.Registry.Snapshot().Histogram(metricLatencyNs)
		sent := cur.Sent - prev.Sent
		shed := cur.Shed - prev.Shed
		degraded := cur.Degraded - prev.Degraded
		lat := curLat.Diff(prevLat)
		p99 := time.Duration(lat.Quantile(0.99))
		prev, prevLat = cur, curLat

		if s.flight.Frozen() {
			continue // keep the loop alive for Counts bookkeeping symmetry
		}
		var shedFrac float64
		if sent > 0 {
			shedFrac = float64(shed) / float64(sent)
		}
		s.flight.Record(obs.FlightEvent{Kind: obs.FlightMetric, Name: "window_sent", Value: float64(sent)})
		s.flight.Record(obs.FlightEvent{Kind: obs.FlightMetric, Name: "shed_rate", Value: shedFrac})
		s.flight.Record(obs.FlightEvent{Kind: obs.FlightMetric, Name: "queue_depth", Value: float64(len(s.queue))})
		if p99 > 0 {
			s.flight.Record(obs.FlightEvent{Kind: obs.FlightMetric, Name: "latency_p99_ns", Value: float64(p99)})
		}
		switch {
		case sent >= monitorMinWindow && shedFrac >= shedSpikeFraction:
			s.TriggerFlight(TriggerShedSpike,
				fmt.Sprintf("shed %d of %d this window", shed, sent), shedFrac)
		case degraded > 0:
			s.TriggerFlight(TriggerDegrade,
				fmt.Sprintf("%d degraded answers this window", degraded), float64(degraded))
		case lat.Count >= monitorMinWindow && p99 > s.cfg.DefaultDeadline:
			s.TriggerFlight(TriggerP99Deadline,
				fmt.Sprintf("window p99 %v exceeds deadline %v", p99, s.cfg.DefaultDeadline), float64(p99))
		}
	}
}

// monitorMinWindow is the minimum per-window sample size before the
// rate triggers may fire — a two-request window shedding one is not a
// spike.
const monitorMinWindow = 16

// shedSpikeFraction is the per-window shed fraction that fires the
// shed_spike trigger.
const shedSpikeFraction = 0.5

// handleConn runs the reader side of one connection: framing,
// parsing, admission. A writer goroutine serializes responses; the
// reader never blocks on routing work (enqueue is non-blocking) and
// the accept loop never blocks on the reader.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	// The connection context is canceled the moment the reader exits
	// (the peer is gone), so queued tasks from a dead connection are
	// shed (reason canceled) instead of computed into the void.
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	out := make(chan outFrame, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(conn, out)
	}()
	var pending sync.WaitGroup
	br := bufio.NewReader(conn)
	var body []byte // reused for every frame: admit keeps nothing of it
	for {
		var err error
		body, err = readFrame(br, body, DefaultMaxFrame)
		if err != nil {
			break // EOF, torn frame, or closed conn: stop reading
		}
		s.admit(ctx, body, out, &pending)
	}
	cancel()
	pending.Wait() // workers may still hold tasks writing to out
	close(out)
	<-writerDone
}

// writeLoop is the writer side of one connection. It encodes each
// response into one reused buffer behind a bufio.Writer and flushes
// when out drains, so a burst of responses costs one write syscall and
// a lone response is flushed at once. The write deadline is set once
// per burst (a burst never buffers more than the writer holds, so the
// deadline still bounds every syscall). Sampled traces wait for the
// flush that puts their frame on the wire; a failed write or flush
// evicts the peer — closing the connection unsticks the reader, whose
// exit cancels the connection context, so queued tasks shed (canceled)
// instead of parking workers in sendResponse. The loop keeps draining
// out after that, so senders never block.
func (s *Server) writeLoop(conn net.Conn, out <-chan outFrame) {
	bw := bufio.NewWriter(conn)
	var frame []byte
	type held struct {
		tr *obs.ReqTrace
		t0 time.Time
	}
	var traced []held // sampled frames written since the last flush
	dead := false
	// settle publishes the held traces, with their write spans when the
	// frames reached the peer.
	settle := func(sent bool) {
		now := time.Now()
		for _, h := range traced {
			if sent {
				h.tr.AddSpan(obs.SpanWrite, h.t0, now, obs.LayerNone, "")
			}
			s.publishTrace(h.tr)
		}
		traced = traced[:0]
	}
	for fr := range out {
		if dead {
			// Sampled traces still publish: their outcome happened, only
			// the write to the dead peer didn't.
			s.publishTrace(fr.tr)
			continue
		}
		var t0 time.Time
		if fr.tr != nil {
			t0 = time.Now()
		}
		frame, _ = appendFrame(frame[:0], &fr.resp) // a *Response always encodes
		var err error
		if bw.Buffered() > 0 && bw.Available() < len(frame) {
			// End the burst before the buffer would spill.
			if err = bw.Flush(); err == nil {
				settle(true)
			}
		}
		if fr.tr != nil {
			traced = append(traced, held{fr.tr, t0})
		}
		if err == nil && bw.Buffered() == 0 && s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err == nil {
			_, err = bw.Write(frame)
		}
		if err == nil && len(out) == 0 {
			err = bw.Flush()
			if err == nil {
				settle(true)
			}
		}
		if err != nil {
			dead = true
			settle(false)
			conn.Close()
		}
	}
	// Nothing is left buffered: the last frame found out empty.
}

// admit counts, parses, and enqueues one request frame, shedding
// instead of blocking when the queue is full. Parse failures are
// admitted-and-shed (reason bad_request) so conservation covers them.
// Trace context is resolved here: the wire trace_id when supplied,
// otherwise (with tracing enabled) a hash of the frame bytes — either
// way a pure function of the request, so replays sample identically.
func (s *Server) admit(ctx context.Context, body []byte, out chan<- outFrame, pending *sync.WaitGroup) {
	s.sent.Add(1)
	s.m.sent.Inc()
	start := time.Now()
	req, err := ParseRequest(body)
	if err == nil && req.Fwd != nil {
		s.fwdIn.Add(1)
		s.m.fwdIn.Inc()
	}
	id := req.TraceID
	if id == 0 && s.sampler.Enabled() {
		id = obs.TraceIDFromBytes(body)
	}
	var tr *obs.ReqTrace
	if id != 0 && s.sampler.Sample(id) {
		tr = obs.NewReqTrace(id, req.Kind, req.Mode, start)
		tr.Batch = len(req.Batch)
	}
	if err != nil {
		s.shed(out, ctx, tr, shedBadRequest, withTraceID(errorResponse(req.ID, err), id))
		return
	}
	kind, kerr := ParseKind(req.Kind)
	if kerr == nil {
		s.m.requests[kind].Inc()
	}
	t := &task{
		req:     req,
		start:   start,
		id:      id,
		tr:      tr,
		ctx:     ctx,
		out:     out,
		pending: pending,
	}
	if kerr != nil {
		err = kerr
	} else if kind == KindBatch {
		t.batch, err = parseBatch(req)
	} else {
		t.q, err = ParseQuery(req)
	}
	if err != nil {
		s.shed(out, ctx, tr, shedBadRequest, withTraceID(errorResponse(req.ID, err), id))
		return
	}
	budget := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		budget = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	t.deadline = t.start.Add(budget)
	t.enq = time.Now()
	tr.AddSpan(obs.SpanAdmission, start, t.enq, obs.LayerNone, "")
	pending.Add(1)
	select {
	case s.queue <- t:
		s.m.queue.Set(float64(len(s.queue)))
	default:
		pending.Done()
		s.shed(out, ctx, tr, shedQueueFull, withTraceID(shedResponse(req.ID, shedQueueFull), id))
	}
}

// withTraceID stamps the resolved trace id onto a response.
func withTraceID(resp Response, id obs.TraceID) Response {
	resp.TraceID = id
	return resp
}

// shed resolves a request to the shed outcome reason: it tags a
// sampled trace, counts the reason, and sends resp — the shed reply,
// or the error reply of a bad request.
func (s *Server) shed(out chan<- outFrame, ctx context.Context, tr *obs.ReqTrace, reason shedReason, resp Response) {
	if tr != nil {
		tr.SetOutcome("shed:" + reason.String())
	}
	s.shedN[reason].Add(1)
	s.m.shed[reason].Inc()
	s.sendResponse(out, ctx, resp, tr)
}

// sendResponse delivers resp (and its trace) to the connection writer
// unless the server is shutting down — the writer drains until close,
// so this only gives up when ctx is already canceled, in which case a
// sampled trace is published directly (its outcome already happened;
// only the write to the dead peer won't).
func (s *Server) sendResponse(out chan<- outFrame, ctx context.Context, resp Response, tr *obs.ReqTrace) {
	select {
	case out <- outFrame{resp: resp, tr: tr}:
	case <-ctx.Done():
		s.publishTrace(tr)
	}
}

// publishTrace finishes a sampled trace and publishes it to the trace
// buffer and the flight recorder. Safe for nil traces.
func (s *Server) publishTrace(tr *obs.ReqTrace) {
	if tr == nil {
		return
	}
	tr.Finish(time.Now())
	s.traces.Add(tr)
	s.m.sampled.Inc()
	s.flight.Record(obs.FlightEvent{
		Kind:    obs.FlightTrace,
		TraceID: tr.ID,
		Name:    tr.Outcome,
		Value:   float64(tr.EndNs),
	})
}

// worker is one shard: a loop around a private Engine.
func (s *Server) worker() {
	defer s.workers.Done()
	eng := NewEngine(s.cache)
	eng.SetFaults(s.cfg.Faults)
	for t := range s.queue {
		s.m.queue.Set(float64(len(s.queue)))
		s.process(eng, t)
	}
}

// degradeCritical is the queue fill at or above which every query
// degrades to layer bounds (above Config.DegradeHigh and
// Config.DegradeDetour).
const degradeCritical = 0.90

// degradeLevel maps the instantaneous queue fill to a ladder rung.
func (s *Server) degradeLevel() Level {
	fill := float64(len(s.queue)) / float64(cap(s.queue))
	switch {
	case fill >= degradeCritical:
		return LevelBounds
	case fill >= s.cfg.DegradeHigh:
		return LevelDistance
	case fill >= s.cfg.DegradeDetour:
		return LevelDetour
	default:
		return LevelFull
	}
}

// process resolves one task to its single outcome.
func (s *Server) process(eng *Engine, t *task) {
	defer t.pending.Done()
	if hook := s.workerHook; hook != nil {
		hook(t)
	}
	t.tr.AddSpan(obs.SpanQueue, t.enq, time.Now(), obs.LayerNone, "")
	var reason shedReason
	switch {
	case s.ctx.Err() != nil:
		reason = shedShutdown
	case t.ctx.Err() != nil:
		reason = shedCanceled
	case time.Now().After(t.deadline):
		reason = shedDeadline
	default:
		if s.forwardTask(t) {
			return
		}
		s.answerTask(eng, t)
		return
	}
	s.shed(t.out, t.ctx, t.tr, reason, withTraceID(shedResponse(t.req.ID, reason), t.id))
}

// forwardTask offers the task to the configured Forwarder and reports
// whether it resolved the request (forwarded or shed on a mid-forward
// deadline). false — including the no-Forwarder case — means local
// compute proceeds.
func (s *Server) forwardTask(t *task) bool {
	fw := s.cfg.Forwarder
	if fw == nil {
		return false
	}
	qs := t.batch
	if qs == nil {
		qs = []Query{t.q}
	}
	req := t.req
	req.TraceID = t.id // resolved id, so the peer joins the same trace
	ctx, cancel := context.WithDeadline(t.ctx, t.deadline)
	resp, verdict := fw.Forward(ctx, req, qs, t.deadline, t.tr)
	cancel()
	switch verdict {
	case ForwardProxied, ForwardRedirected:
		s.forwarded.Add(1)
		s.m.forwarded.Inc()
		t.tr.SetOutcome("forwarded")
		s.observeLatency(t)
		resp.ID = t.req.ID
		resp.TraceID = t.id
		s.sendResponse(t.out, t.ctx, resp, t.tr)
		return true
	case ForwardDeadline:
		s.shed(t.out, t.ctx, t.tr, shedDeadline, withTraceID(shedResponse(t.req.ID, shedDeadline), t.id))
		return true
	}
	return false
}

// answerTask computes the answer(s) at the current degrade rung and
// records the answered/degraded outcome.
func (s *Server) answerTask(eng *Engine, t *task) {
	level := s.degradeLevel()
	if level < LevelDetour && s.cfg.Faults != nil && s.cfg.Faults.Len() > 0 {
		// Known link failures: optimal paths may cross dead links, so
		// route answers take the detour rung even with a quiet queue.
		level = LevelDetour
	}
	var resp Response
	maxLevel := LevelFull
	if t.batch != nil {
		resp = Response{ID: t.req.ID, Status: StatusOK, Batch: make([]Response, len(t.batch))}
		// One packing pass over the whole batch: the frame shares
		// packed operands across sub-queries before any cache lookup.
		eng.BeginBatch(t.batch)
		for i, q := range t.batch {
			if time.Now().After(t.deadline) {
				// Deadline hit mid-batch: the whole request resolves to
				// one outcome, shed deadline (partial answers dropped).
				if t.tr != nil {
					t.tr.CurSub = 0
				}
				s.shed(t.out, t.ctx, t.tr, shedDeadline, withTraceID(shedResponse(t.req.ID, shedDeadline), t.id))
				return
			}
			if t.tr != nil {
				// One wire trace id for the frame; spans tag the sub-query.
				t.tr.CurSub = i + 1
			}
			a, cached, err := eng.AnswerBatchTraced(i, q, level, t.tr)
			if err != nil {
				if t.tr != nil {
					t.tr.CurSub = 0
				}
				s.shed(t.out, t.ctx, t.tr, shedBadRequest, withTraceID(errorResponse(t.req.ID, err), t.id))
				return
			}
			resp.Batch[i] = answerResponse(t.req.Batch[i].ID, q.Kind, a, cached)
			if a.Level > maxLevel {
				maxLevel = a.Level
			}
		}
		if t.tr != nil {
			t.tr.CurSub = 0
		}
		resp.Degrade = maxLevel.DegradeString()
	} else {
		a, cached, err := eng.AnswerTraced(t.q, level, t.tr)
		if err != nil {
			s.shed(t.out, t.ctx, t.tr, shedBadRequest, withTraceID(errorResponse(t.req.ID, err), t.id))
			return
		}
		maxLevel = a.Level
		resp = answerResponse(t.req.ID, t.q.Kind, a, cached)
	}
	if maxLevel > LevelFull {
		s.degraded.Add(1)
		s.m.degraded[maxLevel].Inc()
		t.tr.SetOutcome("degraded:" + maxLevel.DegradeString())
	} else {
		s.answered.Add(1)
		s.m.answered.Inc()
		t.tr.SetOutcome("answered")
	}
	s.observeLatency(t)
	resp.TraceID = t.id
	s.sendResponse(t.out, t.ctx, resp, t.tr)
}

// observeLatency records the task's end-to-end latency. A sampled
// request pins itself as the exemplar of whichever latency bucket it
// lands in — aggregate → trace in one hop.
func (s *Server) observeLatency(t *task) {
	lat := float64(time.Since(t.start))
	if t.tr != nil {
		s.m.latencyNs.ObserveExemplar(lat, t.id)
	} else {
		s.m.latencyNs.Observe(lat)
	}
}
