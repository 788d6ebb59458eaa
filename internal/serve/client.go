package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/word"
)

// ErrClientClosed is returned by Do after Close or after the
// connection died.
var ErrClientClosed = errors.New("serve: client closed")

// Client speaks the wire protocol over one connection. Safe for
// concurrent use: requests are ID-stamped and responses are matched
// back to their callers, so any number of goroutines can share one
// connection (the server may answer out of order).
type Client struct {
	conn     net.Conn
	maxFrame int

	wmu sync.Mutex // serializes frame writes
	// wtimeout, when > 0, bounds each frame write (stored as
	// nanoseconds). Without it a peer that stops reading parks Do —
	// and every goroutine sharing this client — in WriteFrame forever.
	wtimeout atomic.Int64

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]call
	err     error // set once the reader exits
	done    chan struct{}
}

// call is one Do waiting for its response: the request the reader
// expands the response's anchors against, and the buffered channel it
// delivers the result on.
type call struct {
	req *Request
	ch  chan reply
}

// reply is the reader's result for one call.
type reply struct {
	resp Response
	err  error
}

func (r reply) result() (Response, error) {
	if r.err != nil {
		return Response{}, r.err
	}
	return r.resp, nil
}

// NewClient wraps an established connection (see also Dial and
// Server.SelfClient) and starts its response reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		maxFrame: DefaultMaxFrame,
		pending:  make(map[uint64]call),
		done:     make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects to a dbserve TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// readLoop dispatches responses to waiting callers until the
// connection dies. It reads through a bufio.Reader into one reused
// body buffer: ParseResponse copies out everything it keeps. It also
// expands each response's anchors against the caller's request: the
// caller is parked until its reply arrives either way, and a closed
// loop of scalar routes on DG(2,64) measured a lower p90 latency with
// the expansion here than in Do.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	var body []byte
	var ex Expander
	var err error
	for {
		body, err = readFrame(br, body, c.maxFrame)
		if err != nil {
			break
		}
		var resp Response
		resp, err = ParseResponse(body)
		if err != nil {
			break
		}
		c.mu.Lock()
		cl, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			// A cluster node that forwarded the request (Fwd) sends the
			// answer on in anchor form and needs no hops.
			var xerr error
			if cl.req.Fwd != nil {
				xerr = ex.Check(cl.req, &resp)
			} else {
				xerr = ex.Expand(cl.req, &resp)
			}
			cl.ch <- reply{resp, xerr} // buffered: never blocks
		}
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	close(c.done)
}

// Do sends req (its ID is overwritten) and waits for the matching
// response, the context, or connection death. Route answers that
// arrive as anchors come back expanded into Path (Expander.Expand), or,
// for a request a cluster node forwards (Fwd set), checked and left in
// anchor form (Expander.Check); a response whose anchors cannot answer
// req is an error.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	ch := make(chan reply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = call{req: &req, ch: ch}
	c.mu.Unlock()

	c.wmu.Lock()
	if wt := time.Duration(c.wtimeout.Load()); wt > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	err := WriteFrame(c.conn, &req)
	c.wmu.Unlock()
	if err != nil {
		c.abandon(req.ID, ch)
		// A failed write leaves the stream in an unknown state
		// (possibly mid-frame); the connection is unusable. Closing it
		// unsticks the reader so Err() reports the death.
		c.conn.Close()
		return Response{}, err
	}
	select {
	case r := <-ch:
		return r.result()
	case <-ctx.Done():
		c.abandon(req.ID, ch)
		return Response{}, ctx.Err()
	case <-c.done:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		// The response may have been delivered just before the reader
		// died; prefer it.
		select {
		case r := <-ch:
			return r.result()
		default:
		}
		return Response{}, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}
}

// An Expander expands the route anchors of responses into hops. Its
// zero value is ready to use. It reuses its digit and hop buffers, so
// one Expander serves one goroutine: a Client's reader owns one.
type Expander struct {
	src, dst []byte
	path     core.Path
	// build is false while Check runs; hops is the frame's backing
	// array of hop names, which expand cuts the paths from.
	build bool
	hops  []string
}

// Expand expands every route anchor in resp, the answer to req, into
// its hops in Path, keeping the anchor: core.AppendRoute on the digits
// of the route sub-request's dst, with one backing array for all the
// paths of the frame. It fails, wrapping ErrBadFrame, when an anchor
// cannot be the full-fidelity answer to its sub-request: it rides a
// non-route, non-ok or degraded answer, or a batch item with no
// request; its line is not the request's mode's (1 directed, 6, 8 or 9
// undirected); it is out of range for the request's k
// (core.Anchor.Hops); it does not expand to exactly the answer's
// distance; src or dst is no word of the request's DG(d,k) as
// word.Parse spells them; or its path does not lead from src to dst
// (core.Anchor.Joins). On failure resp's paths are unspecified.
func (e *Expander) Expand(req *Request, resp *Response) error {
	return e.run(req, resp, true)
}

// Check checks resp's anchors as Expand does and builds no path. A
// cluster node that proxies a peer's answer uses it: the answer goes
// on in anchor form, which the encoder writes without Path.
func (e *Expander) Check(req *Request, resp *Response) error {
	return e.run(req, resp, false)
}

func (e *Expander) run(req *Request, resp *Response, build bool) error {
	hops, anchors, err := walkAnchors(req, resp, nil)
	if err != nil || anchors == 0 {
		return err
	}
	if e.build = build; build {
		e.hops = make([]string, hops)
	}
	_, _, err = walkAnchors(req, resp, e)
	e.hops = nil
	return err
}

// walkAnchors visits every response in resp that carries an anchor,
// with the request it answers: resp itself for req, and batch item i
// for req's item i; an anchored batch item of a request with no such
// item fails. With e nil it checks each anchor (anchorHops) and
// returns the frame's total hop count and number of anchors; with e it
// checks that each anchor joins its sub-request's src and dst and, for
// Expand, expands it into its Path.
func walkAnchors(req *Request, resp *Response, e *Expander) (hops, anchors int, err error) {
	if resp.Anchor != nil {
		anchors = 1
		if e == nil {
			hops, err = anchorHops(req, resp)
		} else {
			err = e.expand(req, resp)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	for i := range resp.Batch {
		sub := &resp.Batch[i]
		if sub.Anchor == nil && len(sub.Batch) == 0 {
			continue
		}
		if i >= len(req.Batch) {
			return 0, 0, fmt.Errorf("%w: batch item %d answers no request", ErrBadFrame, i)
		}
		h, a, err := walkAnchors(&req.Batch[i], sub, e)
		if err != nil {
			return 0, 0, err
		}
		hops, anchors = hops+h, anchors+a
	}
	return hops, anchors, nil
}

// expand checks that r's anchor, already checked by anchorHops against
// the scalar request req, leads from src to dst once they are words of
// DG(d,k), and, for Expand, writes its path into r.Path: the hop
// names of core.AppendRoute on dst's digits.
func (e *Expander) expand(req *Request, r *Response) error {
	var err error
	if e.src, err = word.AppendParsed(e.src[:0], req.D, req.Src); err != nil {
		return fmt.Errorf("%w: anchor of src %q: %w", ErrBadFrame, req.Src, err)
	}
	if e.dst, err = word.AppendParsed(e.dst[:0], req.D, req.Dst); err != nil {
		return fmt.Errorf("%w: anchor of dst %q: %w", ErrBadFrame, req.Dst, err)
	}
	if !r.Anchor.Joins(e.src, e.dst) {
		return fmt.Errorf("%w: anchor %+v does not lead from %s to %s", ErrBadFrame, *r.Anchor, req.Src, req.Dst)
	}
	if !e.build {
		return nil
	}
	e.path = core.AppendRoute(e.path[:0], e.dst, *r.Anchor)
	if len(e.path) == 0 {
		r.Path = nil // as an omitted path decodes
		return nil
	}
	n := len(e.path)
	r.Path, e.hops = e.hops[:n:n], e.hops[n:]
	for i, h := range e.path {
		r.Path[i] = FormatHop(h)
	}
	return nil
}

// anchorHops checks that r's anchor can be the full-fidelity answer to
// the scalar request req and returns the number of hops it expands to.
func anchorHops(req *Request, r *Response) (int, error) {
	a := *r.Anchor
	if req.Kind != "route" || r.Status != StatusOK || r.Degrade != "" {
		return 0, fmt.Errorf("%w: anchor on a %q answer to a %q request (degrade %q)", ErrBadFrame, r.Status, req.Kind, r.Degrade)
	}
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return 0, fmt.Errorf("%w: anchor: %w", ErrBadFrame, err)
	}
	if (mode == Directed) != (a.Line == 1) {
		return 0, fmt.Errorf("%w: line %d anchor answers a %v route", ErrBadFrame, a.Line, mode)
	}
	if len(req.Src) != req.K || len(req.Dst) != req.K {
		return 0, fmt.Errorf("%w: anchor of a %d-digit src and %d-digit dst, k = %d", ErrBadFrame, len(req.Src), len(req.Dst), req.K)
	}
	n, ok := a.Hops(req.K)
	if !ok {
		return 0, fmt.Errorf("%w: anchor %+v out of range for k = %d", ErrBadFrame, a, req.K)
	}
	if n != r.Distance {
		return 0, fmt.Errorf("%w: anchor %+v expands to %d hops, distance %d", ErrBadFrame, a, n, r.Distance)
	}
	return n, nil
}

// SetWriteTimeout bounds every subsequent frame write; 0 (the
// default) disables the bound. A write that misses the deadline fails
// the calling Do — the caller decides what a wedged peer means (the
// cluster forwarder treats it as a dead peer and recomputes locally).
func (c *Client) SetWriteTimeout(d time.Duration) {
	c.wtimeout.Store(int64(d))
}

// Err reports the terminal connection error once the response reader
// has exited; nil while the connection is healthy. A non-nil Err means
// every future Do will fail — callers that own the dial (the load
// generator) use it to decide when to reconnect.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// abandon withdraws the pending call id. When the reader has already
// taken it, abandon waits for the reply, so the reader is done reading
// the caller's request before Do returns.
func (c *Client) abandon(id uint64, ch chan reply) {
	c.mu.Lock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !ok {
		<-ch
	}
}

// Close tears the connection down; in-flight Do calls return
// ErrClientClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// DistanceRequest builds a distance query for one vertex pair.
func DistanceRequest(src, dst word.Word, mode Mode) Request {
	return scalarRequest("distance", src, dst, mode)
}

// RouteRequest builds a route query for one vertex pair.
func RouteRequest(src, dst word.Word, mode Mode) Request {
	return scalarRequest("route", src, dst, mode)
}

// NextHopRequest builds a next-hop query for one vertex pair.
func NextHopRequest(src, dst word.Word, mode Mode) Request {
	return scalarRequest("nexthop", src, dst, mode)
}

// BatchRequest wraps scalar requests into one batch frame.
func BatchRequest(items ...Request) Request {
	return Request{Kind: "batch", Batch: items}
}

func scalarRequest(kind string, src, dst word.Word, mode Mode) Request {
	return Request{
		Kind: kind,
		D:    src.Base(),
		K:    src.Len(),
		Src:  src.String(),
		Dst:  dst.String(),
		Mode: mode.String(),
	}
}
