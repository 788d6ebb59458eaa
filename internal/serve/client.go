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
	pending map[uint64]chan Response
	err     error // set once the reader exits
	done    chan struct{}
}

// NewClient wraps an established connection (see also Dial and
// Server.SelfClient) and starts its response reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		maxFrame: DefaultMaxFrame,
		pending:  make(map[uint64]chan Response),
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
// body buffer: ParseResponse copies out everything it keeps.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	var body []byte
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
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp // buffered: never blocks
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
// response, the context, or connection death.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	if wt := time.Duration(c.wtimeout.Load()); wt > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	err := WriteFrame(c.conn, &req)
	c.wmu.Unlock()
	if err != nil {
		c.forget(req.ID)
		// A failed write leaves the stream in an unknown state
		// (possibly mid-frame); the connection is unusable. Closing it
		// unsticks the reader so Err() reports the death.
		c.conn.Close()
		return Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		c.forget(req.ID)
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
		case resp := <-ch:
			return resp, nil
		default:
		}
		return Response{}, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}
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

func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
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
