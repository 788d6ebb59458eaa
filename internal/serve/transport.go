package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport abstracts how connections are established, so the same
// server and client code runs over real TCP, over in-process pipes,
// and over the simulator's channel links interchangeably:
//
//   - TCP: the production transport (cmd/dbserve, alone or as a
//     cluster node).
//   - MemTransport: a named, in-process channel-link fabric. Every
//     Listen registers an address; Dial connects a net.Pipe through
//     it. Links can carry injected latency and be severed, which is
//     what makes deterministic cluster and chaos harnesses possible.
//   - Server.Loopback: the zero-address transport of one server —
//     the SelfClient path, shaped as a Transport.
//
// A Transport is safe for concurrent use.
type Transport interface {
	// Listen opens a listener on addr (transport-specific syntax; ""
	// asks the transport to pick an address).
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener previously opened on addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the production transport: real sockets via the net package.
type TCP struct {
	// DialTimeout bounds connection establishment; 0 means 5s. A
	// blackholed peer must not park a caller forever — failures
	// surface to the caller, which decides (the cluster forwarder
	// falls back to local compute).
	DialTimeout time.Duration
}

// Listen opens a TCP listener.
func (t TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial connects to a TCP address.
func (t TCP) Dial(addr string) (net.Conn, error) {
	d := t.DialTimeout
	if d <= 0 {
		d = 5 * time.Second
	}
	return net.DialTimeout("tcp", addr, d)
}

// DialTransport connects a Client through a transport — the
// transport-generic sibling of Dial.
func DialTransport(t Transport, addr string) (*Client, error) {
	conn, err := t.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// Loopback returns the server's in-process transport: Dial (the
// address is ignored) returns the client half of a net.Pipe whose
// server half is handled exactly like an accepted connection — the
// path SelfClient has always used. Listen is not supported: a
// loopback has no outside to listen on.
func (s *Server) Loopback() Transport { return loopback{s} }

type loopback struct{ s *Server }

func (l loopback) Listen(string) (net.Listener, error) {
	return nil, errors.New("serve: loopback transport cannot listen")
}

func (l loopback) Dial(string) (net.Conn, error) {
	cs, ss := net.Pipe()
	if !l.s.startConn(ss) {
		cs.Close()
		return nil, ErrServerClosed
	}
	return cs, nil
}

// MemTransport is the in-process channel-link transport: a registry
// of named listeners connected by synchronous net.Pipe links. It is
// the deterministic fabric the cluster harness and the check oracle
// run on — no ports, no kernel buffers, and two fault-injection
// levers:
//
//   - SetLinkDelay imposes a per-write latency on future connections
//     to an address (both directions), so deadline propagation can be
//     exercised deterministically;
//   - closing a listener severs every connection made through it, so
//     killing a node looks like a crash to its peers.
type MemTransport struct {
	mu        sync.Mutex
	next      int
	listeners map[string]*memListener
	delay     map[string]time.Duration
}

// NewMemTransport returns an empty in-process fabric.
func NewMemTransport() *MemTransport {
	return &MemTransport{
		listeners: make(map[string]*memListener),
		delay:     make(map[string]time.Duration),
	}
}

// ErrMemRefused is wrapped by Dial errors for absent or closed
// addresses (the moral equivalent of ECONNREFUSED).
var ErrMemRefused = errors.New("serve: mem transport: connection refused")

// Listen registers addr ("" picks "mem:N") and returns its listener.
func (t *MemTransport) Listen(addr string) (net.Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr == "" {
		addr = fmt.Sprintf("mem:%d", t.next)
		t.next++
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("serve: mem transport: address %s in use", addr)
	}
	l := &memListener{
		t:      t,
		addr:   addr,
		accept: make(chan net.Conn, 64),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener on addr. The link carries the
// address's configured delay at dial time.
func (t *MemTransport) Dial(addr string) (net.Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	delay := t.delay[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrMemRefused, addr)
	}
	cs, ss := net.Pipe()
	var cc, sc net.Conn = cs, ss
	if delay > 0 {
		cc = &delayConn{Conn: cs, d: delay}
		sc = &delayConn{Conn: ss, d: delay}
	}
	tracked := l.track(sc)
	select {
	case l.accept <- tracked:
		return cc, nil
	case <-l.done:
		cs.Close()
		ss.Close()
		return nil, fmt.Errorf("%w: %s", ErrMemRefused, addr)
	}
}

// SetLinkDelay imposes d of latency on every write of connections
// dialed to addr from now on (both directions). 0 removes the delay.
// Existing connections are unaffected.
func (t *MemTransport) SetLinkDelay(addr string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d <= 0 {
		delete(t.delay, addr)
		return
	}
	t.delay[addr] = d
}

// drop removes a closed listener from the registry.
func (t *MemTransport) drop(addr string) {
	t.mu.Lock()
	delete(t.listeners, addr)
	t.mu.Unlock()
}

// memListener is one registered address of a MemTransport.
type memListener struct {
	t      *MemTransport
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// track registers the server half of a dialed connection so Close can
// sever it; the returned wrapper unregisters itself when closed.
func (l *memListener) track(c net.Conn) net.Conn {
	tc := &trackedConn{Conn: c, l: l}
	l.mu.Lock()
	l.conns[tc] = struct{}{}
	l.mu.Unlock()
	return tc
}

func (l *memListener) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// Accept returns the next dialed connection.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("serve: mem transport: listener %s closed: %w", l.addr, net.ErrClosed)
	}
}

// Close unregisters the address, refuses pending and future dials,
// and severs every connection accepted through this listener — a
// crashed node, as seen from its peers. Idempotent.
func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.drop(l.addr)
		// Drain connections parked in the accept queue, then sever
		// the established ones.
		for {
			select {
			case c := <-l.accept:
				c.Close()
			default:
				l.mu.Lock()
				conns := make([]net.Conn, 0, len(l.conns))
				for c := range l.conns {
					conns = append(conns, c)
				}
				l.mu.Unlock()
				for _, c := range conns {
					c.Close()
				}
				return
			}
		}
	})
	return nil
}

// Addr returns the listener's registered address.
func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

// memAddr is the net.Addr of a MemTransport listener.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// trackedConn unregisters itself from its listener on Close.
type trackedConn struct {
	net.Conn
	l    *memListener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { c.l.untrack(c) })
	return c.Conn.Close()
}

// delayConn sleeps before each write — a symmetric per-hop link
// latency (writes on both halves are delayed, so each direction of a
// round trip pays once).
type delayConn struct {
	net.Conn
	d time.Duration
}

func (c *delayConn) Write(p []byte) (int, error) {
	time.Sleep(c.d)
	return c.Conn.Write(p)
}
