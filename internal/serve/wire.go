package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/word"
)

// Wire protocol: length-prefixed JSON. Each frame is a 4-byte
// big-endian byte count followed by exactly one JSON object — a
// Request from client to server, a Response back. JSON keeps the
// protocol debuggable with nc/jq; the length prefix keeps framing
// trivial and lets the reader enforce a hard size limit before
// touching the decoder. Responses carry the request ID and may arrive
// out of order (the server shards requests across workers); clients
// match on ID.

// DefaultMaxFrame bounds a frame's JSON body (1 MiB) on both the
// server and the client side of a connection.
const DefaultMaxFrame = 1 << 20

// Wire-level errors.
var (
	ErrFrameTooBig = errors.New("serve: frame exceeds size limit")
	ErrBadFrame    = errors.New("serve: malformed frame")
)

// Request is one client query frame. Scalar kinds fill D/K/Src/Dst;
// kind "batch" fills Batch with scalar sub-requests instead (nested
// batches are rejected). DeadlineMS is the server-side budget for the
// whole request; 0 means the server default.
type Request struct {
	ID         uint64    `json:"id"`
	Kind       string    `json:"kind"`
	D          int       `json:"d,omitempty"`
	K          int       `json:"k,omitempty"`
	Src        string    `json:"src,omitempty"`
	Dst        string    `json:"dst,omitempty"`
	Mode       string    `json:"mode,omitempty"` // "undirected" (default) | "directed"
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	Batch      []Request `json:"batch,omitempty"`
	// TraceID optionally carries request trace context (16 hex digits).
	// When absent the server derives one by hashing the frame, so a
	// caller that wants its traces correlated across hops — batching
	// and inter-node cluster forwarding — stamps its own. A batch
	// carries one id for the whole frame.
	TraceID obs.TraceID `json:"trace_id,omitempty"`
	// Fwd carries intra-cluster forwarding state. Clients never set
	// it; a cluster node forwarding a query to a peer attaches the
	// resumable routing-walk state here, so the frame stays a plain
	// PR 5 wire request that any node can also answer directly.
	Fwd *ForwardState `json:"fwd,omitempty"`
}

// ForwardState is the hop-by-hop state of a query travelling the
// cluster fabric: enough for the receiving node to resume the
// de Bruijn walk toward the key's owner without any origin-side
// bookkeeping. Field semantics are owned by internal/cluster; serve
// only transports (and counts) them.
type ForwardState struct {
	// Origin is the identifier of the node the query entered the
	// cluster at.
	Origin string `json:"origin"`
	// Key is the placement key, an identifier-space word.
	Key string `json:"key"`
	// Imag is the imaginary identifier of the Koorde walk and
	// Remaining how many of the key's digits are still to inject (the
	// inject sequence is always a suffix of the key, so the count
	// reconstructs it).
	Imag      string `json:"imag"`
	Remaining int    `json:"remaining"`
	// Final marks the last hop of the walk: the receiver owns the key
	// and answers without stepping again.
	Final bool `json:"final,omitempty"`
	// Hops counts inter-node hops taken so far; TTL is the remaining
	// hop budget (a node receiving TTL ≤ 0 answers locally).
	Hops int `json:"hops"`
	TTL  int `json:"ttl"`
}

// Bounds is the LevelBounds payload: D(src,dst) ∈ [Lo, Hi].
type Bounds struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Response statuses.
const (
	StatusOK    = "ok"    // answered, possibly degraded (see Degrade)
	StatusShed  = "shed"  // load-shed; ShedReason says why
	StatusError = "error" // invalid request; Error says why
	// StatusRedirect is the cluster's redirect mode: the query was
	// not answered here; RedirectAddr names the node that owns it.
	// Proxying is the default, so plain PR 5 clients never see this
	// status unless the cluster was explicitly configured for it.
	StatusRedirect = "redirect"
)

// Response is one server answer frame. Status "ok" fills the payload
// fields according to the request kind and the Degrade rung the answer
// was produced at; "shed" and "error" fill ShedReason/Error.
type Response struct {
	ID     uint64 `json:"id"`
	Status string `json:"status"`
	// Degrade is "" (full), "detour", "distance" or "bounds".
	Degrade string `json:"degrade,omitempty"`
	// Cached reports the answer came from the result cache.
	Cached   bool `json:"cached,omitempty"`
	Distance int  `json:"distance"`
	// Path holds the route hops ("L3", "R*", ...) for kind route at
	// full fidelity, or the fault-avoiding hops of a detour answer.
	Path []string `json:"path,omitempty"`
	// NextHop is the optimal next hop for kind nexthop; Done true
	// means src == dst (no hop needed).
	NextHop    string     `json:"next_hop,omitempty"`
	Done       bool       `json:"done,omitempty"`
	Bounds     *Bounds    `json:"bounds,omitempty"`
	ShedReason string     `json:"shed_reason,omitempty"`
	Error      string     `json:"error,omitempty"`
	Batch      []Response `json:"batch,omitempty"`
	// RedirectAddr is the owning node's client address
	// (StatusRedirect only).
	RedirectAddr string `json:"redirect_addr,omitempty"`
	// TraceID echoes the request's trace context (derived or supplied),
	// present whenever the server resolved one.
	TraceID obs.TraceID `json:"trace_id,omitempty"`
}

// frameHeaderLen is the length-prefix size of one wire frame.
const frameHeaderLen = 4

// WriteFrame marshals v and writes one frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one frame body, enforcing the size limit (0 means
// DefaultMaxFrame). io.EOF is returned verbatim on a clean
// between-frames close; a tear inside a frame is ErrBadFrame.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %w", ErrBadFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooBig, n, maxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: body: %w", ErrBadFrame, err)
	}
	return body, nil
}

// ParseRequest decodes and structurally validates one request frame:
// the JSON must parse, the kind must be known, scalar kinds must carry
// parseable same-network addresses, and batches must be non-empty,
// flat, and within size. Validation errors wrap ErrBadQuery.
func ParseRequest(body []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return Request{}, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	return req, nil
}

// MaxBatch bounds the sub-queries of one batch request.
const MaxBatch = 1024

// ParseKind maps a wire kind name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "distance":
		return KindDistance, nil
	case "route":
		return KindRoute, nil
	case "nexthop":
		return KindNextHop, nil
	case "batch":
		return KindBatch, nil
	default:
		return 0, fmt.Errorf("%w: unknown kind %q", ErrBadQuery, s)
	}
}

// ParseMode maps a wire mode name ("" defaults to undirected).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "undirected":
		return Undirected, nil
	case "directed":
		return Directed, nil
	default:
		return 0, fmt.Errorf("%w: unknown mode %q", ErrBadQuery, s)
	}
}

// ParseQuery converts one scalar request into an engine query,
// validating addresses against the declared DG(d,k).
func ParseQuery(req Request) (Query, error) {
	kind, err := ParseKind(req.Kind)
	if err != nil {
		return Query{}, err
	}
	if kind == KindBatch {
		return Query{}, fmt.Errorf("%w: nested batch", ErrBadQuery)
	}
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return Query{}, err
	}
	if req.D < 2 || req.D > word.MaxBase {
		return Query{}, fmt.Errorf("%w: d = %d out of [2, %d]", ErrBadQuery, req.D, word.MaxBase)
	}
	if req.K < 1 {
		return Query{}, fmt.Errorf("%w: k = %d", ErrBadQuery, req.K)
	}
	if len(req.Src) != req.K || len(req.Dst) != req.K {
		return Query{}, fmt.Errorf("%w: addresses must have k = %d digits", ErrBadQuery, req.K)
	}
	src, err := word.Parse(req.D, req.Src)
	if err != nil {
		return Query{}, fmt.Errorf("%w: src: %w", ErrBadQuery, err)
	}
	dst, err := word.Parse(req.D, req.Dst)
	if err != nil {
		return Query{}, fmt.Errorf("%w: dst: %w", ErrBadQuery, err)
	}
	q := Query{Kind: kind, Mode: mode, Src: src, Dst: dst}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// parseBatch validates a batch request into its scalar queries.
func parseBatch(req Request) ([]Query, error) {
	if len(req.Batch) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	if len(req.Batch) > MaxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds %d", ErrBadQuery, len(req.Batch), MaxBatch)
	}
	qs := make([]Query, len(req.Batch))
	for i, sub := range req.Batch {
		q, err := ParseQuery(sub)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

const hopDigits = "0123456789abcdefghijklmnopqrstuvwxyz"

// FormatHop renders a hop for the wire: type letter then digit
// character, with '*' for wildcards — "L3", "R*".
func FormatHop(h core.Hop) string {
	t := byte('L')
	if h.Type == core.TypeR {
		t = 'R'
	}
	d := byte('*')
	if !h.Wildcard {
		d = hopDigits[h.Digit]
	}
	return string([]byte{t, d})
}

// ParseHop is the inverse of FormatHop.
func ParseHop(s string) (core.Hop, error) {
	if len(s) != 2 {
		return core.Hop{}, fmt.Errorf("%w: hop %q", ErrBadQuery, s)
	}
	var h core.Hop
	switch s[0] {
	case 'L':
	case 'R':
		h.Type = core.TypeR
	default:
		return core.Hop{}, fmt.Errorf("%w: hop type %q", ErrBadQuery, s)
	}
	if s[1] == '*' {
		h.Wildcard = true
		return h, nil
	}
	switch c := s[1]; {
	case c >= '0' && c <= '9':
		h.Digit = c - '0'
	case c >= 'a' && c <= 'z':
		h.Digit = c - 'a' + 10
	default:
		return core.Hop{}, fmt.Errorf("%w: hop digit %q", ErrBadQuery, s)
	}
	return h, nil
}

// answerResponse converts an engine answer into a wire response.
func answerResponse(id uint64, kind Kind, a Answer, cached bool) Response {
	resp := Response{
		ID:      id,
		Status:  StatusOK,
		Degrade: a.Level.DegradeString(),
		Cached:  cached,
	}
	if a.Level >= LevelBounds {
		resp.Bounds = &Bounds{Lo: a.Lo, Hi: a.Hi}
		return resp
	}
	resp.Distance = a.Distance
	switch kind {
	case KindRoute:
		// Detour answers carry their (stretch-bounded, fault-avoiding)
		// path too — that path is the point of the rung.
		if a.Level == LevelFull || a.Level == LevelDetour {
			resp.Path = make([]string, len(a.Path))
			for i, h := range a.Path {
				resp.Path[i] = FormatHop(h)
			}
		}
	case KindNextHop:
		if a.HasHop {
			resp.NextHop = FormatHop(a.Hop)
		} else {
			resp.Done = true
		}
	}
	return resp
}

// shedResponse builds the reply for a shed request.
func shedResponse(id uint64, reason shedReason) Response {
	return Response{ID: id, Status: StatusShed, ShedReason: reason.String()}
}

// errorResponse builds the reply for an invalid request.
func errorResponse(id uint64, err error) Response {
	return Response{ID: id, Status: StatusError, Error: err.Error()}
}
