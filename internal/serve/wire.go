package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

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
	// Path holds the route hops ("L3", "R*", ...): the fault-avoiding
	// hops of a detour answer, or a full-fidelity route expanded from
	// Anchor by Client.Do (Expander).
	Path []string `json:"path,omitempty"`
	// Anchor is a full-fidelity route answer on the wire: the
	// Algorithm 2 line and (s, t, θ), or Algorithm 1's overlap, that
	// build the path from the request's dst (core.AppendRoute). The
	// encoder writes no path next to an anchor.
	Anchor *core.Anchor `json:"anchor,omitempty"`
	// NextHop is the optimal next hop for kind nexthop; Done true
	// means src == dst (no hop needed).
	NextHop    string     `json:"next_hop,omitempty"`
	Done       bool       `json:"done,omitempty"`
	Bounds     *Bounds    `json:"bounds,omitempty"`
	ShedReason string     `json:"shed_reason,omitempty"`
	Error      string     `json:"error,omitempty"`
	Batch      []Response `json:"batch,omitempty"`
	// TraceID echoes the request's trace context (derived or supplied),
	// present whenever the server resolved one.
	TraceID obs.TraceID `json:"trace_id,omitempty"`
}

// frameHeaderLen is the length-prefix size of one wire frame.
const frameHeaderLen = 4

// WriteFrame writes v as one frame, header and body in a single Write.
// Requests and responses go through the package's hand-written codec;
// any other value (the cluster's control envelopes) is marshalled with
// encoding/json.
func WriteFrame(w io.Writer, v any) error {
	bp := framePool.Get().(*[]byte)
	frame, err := appendFrame((*bp)[:0], v)
	if err == nil {
		_, err = w.Write(frame)
	}
	if cap(frame) <= maxPooledFrame {
		*bp = frame
		framePool.Put(bp)
	}
	return err
}

// framePool recycles WriteFrame's encode buffers, so a large frame
// is not re-grown from scratch on every call; a buffer grown past
// maxPooledFrame by a rare huge frame is left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// appendFrame appends v's frame — length prefix, then body — to b.
func appendFrame(b []byte, v any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	switch v := v.(type) {
	case *Request:
		b = appendRequest(b, v)
	case Request:
		b = appendRequest(b, &v)
	case *Response:
		b = appendResponse(b, v)
	case Response:
		b = appendResponse(b, &v)
	default:
		body, err := json.Marshal(v)
		if err != nil {
			return b[:start], err
		}
		b = append(b, body...)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-frameHeaderLen))
	return b, nil
}

// ReadFrame reads one frame body, enforcing the size limit (0 means
// DefaultMaxFrame). io.EOF is returned verbatim on a clean
// between-frames close; a tear inside a frame is ErrBadFrame. The
// connection loops call it on a bufio.Reader, so a frame costs no
// syscall of its own once its bytes have arrived.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	return readFrame(r, nil, maxFrame)
}

// readFrame is ReadFrame reading the body into buf's storage when it
// fits, so a loop that is done with each body before the next read
// allocates once per connection rather than once per frame.
func readFrame(r io.Reader, buf []byte, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, 0, 256)
	}
	hdr := buf[:frameHeaderLen] // the header is read into buf's storage too
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %w", ErrBadFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooBig, n, maxFrame)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: body: %w", ErrBadFrame, err)
	}
	return body, nil
}

// ParseRequest decodes one request frame body. It accepts exactly the
// bodies encoding/json would unmarshal into a Request and yields the
// same value; it checks nothing else (ParseKind and ParseQuery
// validate the kind and the addresses). On error the returned Request
// carries only the top-level id, when one was read, so the error reply
// still reaches a caller that matches replies by id. Errors wrap
// ErrBadQuery.
func ParseRequest(body []byte) (Request, error) {
	var req Request
	d := decoder{data: body}
	if err := d.end(d.request(&req)); err != nil {
		return Request{ID: req.ID}, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	return req, nil
}

// ParseResponse decodes one response frame body — the twin of
// ParseRequest, accepting exactly what encoding/json would unmarshal
// into a Response. Errors wrap ErrBadFrame.
func ParseResponse(body []byte) (Response, error) {
	var resp Response
	d := decoder{data: body}
	if err := d.end(d.response(&resp)); err != nil {
		return Response{}, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return resp, nil
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

// hopChars lists a hop's second character: its digit, or '*' for a
// wildcard.
const hopChars = hopDigits + "*"

// hopNames is the one static table of wire hop names, two bytes each:
// "L0" … "Lz", "L*", then "R0" … "R*". FormatHop slices it and the
// decoder interns path and next_hop strings from it, so neither
// allocates per hop.
var hopNames = func() string {
	b := make([]byte, 0, 4*len(hopChars))
	for _, t := range []byte("LR") {
		for _, c := range []byte(hopChars) {
			b = append(b, t, c)
		}
	}
	return string(b)
}()

// FormatHop renders a hop for the wire: type letter then digit
// character, with '*' for wildcards — "L3", "R*".
func FormatHop(h core.Hop) string {
	i := int(h.Digit)
	if h.Wildcard {
		i = len(hopDigits)
	}
	if h.Type == core.TypeR {
		i += len(hopChars)
	}
	return hopNames[2*i : 2*i+2]
}

// hopIndex returns the position in hopNames of the hop s spells.
func hopIndex[S string | []byte](s S) (int, bool) {
	if len(s) != 2 {
		return 0, false
	}
	var i int
	switch c := s[1]; {
	case '0' <= c && c <= '9':
		i = int(c - '0')
	case 'a' <= c && c <= 'z':
		i = int(c-'a') + 10
	case c == '*':
		i = len(hopDigits)
	default:
		return 0, false
	}
	switch s[0] {
	case 'L':
	case 'R':
		i += len(hopChars)
	default:
		return 0, false
	}
	return i, true
}

// ParseHop is the inverse of FormatHop.
func ParseHop(s string) (core.Hop, error) {
	i, ok := hopIndex(s)
	if !ok {
		return core.Hop{}, fmt.Errorf("%w: hop %q", ErrBadQuery, s)
	}
	var h core.Hop
	if i >= len(hopChars) {
		h.Type, i = core.TypeR, i-len(hopChars)
	}
	if i == len(hopDigits) {
		h.Wildcard = true
	} else {
		h.Digit = byte(i)
	}
	return h, nil
}

// AnswerResponse converts an engine answer into the server's wire
// response. A full-fidelity route answer carries its anchor and no
// hops; a detour answer, which is no Algorithm 2 path, carries its
// (stretch-bounded, fault-avoiding) hops.
func AnswerResponse(id uint64, kind Kind, a Answer, cached bool) Response {
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
		switch a.Level {
		case LevelFull:
			anchor := a.Anchor
			resp.Anchor = &anchor
		case LevelDetour:
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

// The hand-written codec. Frames keep the bytes encoding/json would
// produce, so the wire stays debuggable with nc/jq and the decoder
// stays interchangeable with json.Unmarshal (the fuzz targets check
// both directions against it); what changes is the cost. The encoder
// appends into a caller's buffer, with no reflection and no
// allocation. The decoder is a one-pass scanner that validates as it
// goes and interns the protocol's fixed vocabulary (hop names, kinds,
// modes, statuses), so a parsed route response costs one allocation:
// its anchor, or a detour answer's path. It sizes a path, and the
// frame's own batch, once from a bound that package bytes' assembly
// scans find (see presize), so no loop in Go walks the frame ahead of
// it. The bulk of a route frame
// takes one tight loop per value on both sides: an escape-free string
// is one table loop to its closing quote, a quoted hop name in a path
// one 4-byte compare.

// appendRequest appends r's JSON encoding, byte-identical to
// json.Marshal(r).
func appendRequest(b []byte, r *Request) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, r.Kind)
	b = appendIntField(b, `,"d":`, int64(r.D))
	b = appendIntField(b, `,"k":`, int64(r.K))
	b = appendStringField(b, `,"src":`, r.Src)
	b = appendStringField(b, `,"dst":`, r.Dst)
	b = appendStringField(b, `,"mode":`, r.Mode)
	b = appendIntField(b, `,"deadline_ms":`, r.DeadlineMS)
	if len(r.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i := range r.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRequest(b, &r.Batch[i])
		}
		b = append(b, ']')
	}
	b = appendTraceID(b, r.TraceID)
	if f := r.Fwd; f != nil {
		b = append(b, `,"fwd":{"origin":`...)
		b = appendString(b, f.Origin)
		b = append(b, `,"key":`...)
		b = appendString(b, f.Key)
		b = append(b, `,"imag":`...)
		b = appendString(b, f.Imag)
		b = append(b, `,"remaining":`...)
		b = strconv.AppendInt(b, int64(f.Remaining), 10)
		if f.Final {
			b = append(b, `,"final":true`...)
		}
		b = append(b, `,"hops":`...)
		b = strconv.AppendInt(b, int64(f.Hops), 10)
		b = append(b, `,"ttl":`...)
		b = strconv.AppendInt(b, int64(f.TTL), 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendResponse appends r's JSON encoding, byte-identical to
// json.Marshal(r) but for one departure: a response with an Anchor
// is written without its Path, which the anchor stands for.
func appendResponse(b []byte, r *Response) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"status":`...)
	b = appendString(b, r.Status)
	b = appendStringField(b, `,"degrade":`, r.Degrade)
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	b = append(b, `,"distance":`...)
	b = strconv.AppendInt(b, int64(r.Distance), 10)
	if a := r.Anchor; a != nil {
		// The anchor stands for the path: a frame never carries both.
		b = append(b, `,"anchor":{"line":`...)
		b = strconv.AppendInt(b, int64(a.Line), 10)
		b = appendIntField(b, `,"l":`, int64(a.L))
		b = appendIntField(b, `,"s":`, int64(a.S))
		b = appendIntField(b, `,"t":`, int64(a.T))
		b = appendIntField(b, `,"theta":`, int64(a.Theta))
		b = append(b, '}')
	} else if len(r.Path) > 0 {
		b = append(b, `,"path":[`...)
		// Every element is followed by a comma; the last becomes ']'.
		for _, h := range r.Path {
			if _, ok := hopIndex(h); ok {
				b = append(b, '"', h[0], h[1], '"', ',')
			} else {
				b = append(appendString(b, h), ',')
			}
		}
		b[len(b)-1] = ']'
	}
	b = appendStringField(b, `,"next_hop":`, r.NextHop)
	if r.Done {
		b = append(b, `,"done":true`...)
	}
	if r.Bounds != nil {
		b = append(b, `,"bounds":{"lo":`...)
		b = strconv.AppendInt(b, int64(r.Bounds.Lo), 10)
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, int64(r.Bounds.Hi), 10)
		b = append(b, '}')
	}
	b = appendStringField(b, `,"shed_reason":`, r.ShedReason)
	b = appendStringField(b, `,"error":`, r.Error)
	if len(r.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i := range r.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResponse(b, &r.Batch[i])
		}
		b = append(b, ']')
	}
	b = appendTraceID(b, r.TraceID)
	return append(b, '}')
}

// appendIntField appends an omitempty integer field.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendStringField appends an omitempty string field.
func appendStringField(b []byte, key string, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendTraceID appends the omitempty trace_id field in
// obs.TraceID's MarshalJSON form: 16 lowercase hex digits, quoted.
func appendTraceID(b []byte, id obs.TraceID) []byte {
	if id == 0 {
		return b
	}
	b = append(b, `,"trace_id":"`...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, lowerHex[(id>>shift)&0xf])
	}
	return append(b, '"')
}

const lowerHex = "0123456789abcdef"

// plainRun returns the index of the first byte from i on that table
// marks 0, or len(s): the end of a run of bytes that need no escaping.
// It tests four bytes a step, so a long plain run costs about one
// branch per four bytes.
func plainRun[S string | []byte](s S, i int, table *[256]uint8) int {
	for ; i+4 <= len(s); i += 4 {
		if table[s[i]]&table[s[i+1]]&table[s[i+2]]&table[s[i+3]] == 0 {
			break
		}
	}
	for i < len(s) && table[s[i]] != 0 {
		i++
	}
	return i
}

// htmlSafe is 1 for the bytes json.Marshal copies into a string
// unescaped: printable ASCII but for " \ < > &.
var htmlSafe = func() (safe [256]uint8) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		if !strings.ContainsRune(`"\<>&`, rune(c)) {
			safe[c] = 1
		}
	}
	return safe
}()

// appendString appends s as a JSON string exactly as json.Marshal
// quotes it: HTML-safe (<, > and & escaped), U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 written as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if i = plainRun(s, i, &htmlSafe); i == len(s) {
			break
		}
		if c := s[i]; c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', lowerHex[c>>4], lowerHex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', lowerHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxDepth is encoding/json's nesting limit: a body nested deeper is a
// syntax error there, so it is one here.
const maxDepth = 10000

// maxPresize caps the elements a slice is sized for ahead of decoding
// them, so a frame of 1 MiB of commas cannot make the decoder allocate
// a large slice before it finds the frame malformed.
const maxPresize = 1024

// decoder is a one-pass JSON scanner over one frame body. Each value
// method accepts a value of its Go type, or null, after optional
// whitespace, following encoding/json's rules: null leaves strings,
// numbers, bools and structs untouched, sets pointers and slices to
// nil and a trace id to zero; a slice decodes into its existing
// elements before it grows; keys match field names exactly first,
// then case-insensitively. A value of any other type is an error.
type decoder struct {
	data  []byte
	off   int
	depth int
	// batchSized records that presize has sized a batch array: the
	// frame's own, which is reached before any nested one. Later ones
	// (repeated keys, nested batches) grow by appending.
	batchSized bool
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("serve: wire: offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the offset as out of place where
// want was expected.
func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of frame, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.off], want)
}

// peek skips whitespace and returns the next byte, 0 at the end (a
// NUL byte is no valid start of anything either).
func (d *decoder) peek() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	return d.skipSpace()
}

// skipSpace is peek's loop, kept out of line so peek inlines.
func (d *decoder) skipSpace() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end checks that err is nil and only whitespace follows the value.
func (d *decoder) end(err error) error {
	if err != nil {
		return err
	}
	if d.peek(); d.off < len(d.data) {
		return d.unexpected("end of frame")
	}
	return nil
}

// push enters an object or array.
func (d *decoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return d.errorf("exceeded max depth %d", maxDepth)
	}
	d.off++
	return nil
}

// pop leaves the object or array whose closing byte is next.
func (d *decoder) pop() {
	d.off++
	d.depth--
}

// lit consumes the literal word ("null", "true" or "false").
func (d *decoder) lit(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.unexpected(word)
	}
	d.off += len(word)
	return nil
}

// strPlain is 1 for the bytes a string's raw contents hold as they
// are: printable ASCII but for the closing quote and the backslash.
var strPlain = func() (plain [256]uint8) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		if c != '"' && c != '\\' {
			plain[c] = 1
		}
	}
	return plain
}()

// str consumes a string and returns its raw contents. plain reports
// that they are the string itself: ASCII without escapes.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.unexpected("string")
	}
	i := plainRun(d.data, d.off+1, &strPlain)
	if i < len(d.data) && d.data[i] == '"' {
		raw = d.data[d.off+1 : i]
		d.off = i + 1
		return raw, true, nil
	}
	// An escape, a control character or non-ASCII byte: go on from it
	// with the escape-aware loop.
	plain = true
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			raw = d.data[d.off+1 : i]
			d.off = i + 1
			return raw, plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(d.data) {
				i++
				continue
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if getu4(d.data[i:]) < 0 {
					d.off = i
					return nil, false, d.errorf("bad \\u escape")
				}
				i += 6
			default:
				d.off = i
				return nil, false, d.errorf("bad escape \\%c", d.data[i+1])
			}
		case c < ' ':
			d.off = i
			return nil, false, d.errorf("control character %#x in string", c)
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.off = len(d.data)
	return nil, false, d.unexpected(`closing '"'`)
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote decodes the raw contents of a well-formed string the way
// encoding/json does: escapes resolve, a lone or mismatched surrogate
// and each byte of invalid UTF-8 become U+FFFD.
func unquote(raw []byte) []byte {
	b := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := getu4(raw[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(raw[i:])); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// number consumes a number and returns its text.
func (d *decoder) number() ([]byte, error) {
	start, i, n := d.off, d.off, len(d.data)
	digits := func() bool {
		j := i
		for i < n && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case !digits():
		d.off = i
		return nil, d.unexpected("value")
	}
	if i < n && d.data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			return nil, d.unexpected("digit")
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			return nil, d.unexpected("digit")
		}
	}
	d.off = i
	return d.data[start:i], nil
}

// integer consumes a number that strconv.ParseInt (signed) or
// ParseUint would accept at the given bit size: no fraction, no
// exponent, in range.
func (d *decoder) integer(signed bool, bits int) (u uint64, neg bool, err error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, false, d.unexpected("integer")
	}
	start := d.off
	raw, err := d.number()
	if err != nil {
		return 0, false, err
	}
	max := ^uint64(0) >> (64 - bits)
	if signed {
		max >>= 1
	}
	if raw[0] == '-' && signed {
		neg, raw, max = true, raw[1:], max+1
	}
	for _, c := range raw {
		if c < '0' || c > '9' || u > max/10 || u*10 > max-uint64(c-'0') {
			d.off = start
			return 0, false, d.errorf("number %s is not an integer in range", raw)
		}
		u = u*10 + uint64(c-'0')
	}
	return u, neg, nil
}

// int64 decodes into an integer field of the given bit size.
func (d *decoder) int64(p *int64, bits int) error {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	u, neg, err := d.integer(true, bits)
	if err != nil {
		return err
	}
	*p = int64(u)
	if neg {
		*p = -*p
	}
	return nil
}

func (d *decoder) int(p *int) error {
	v := int64(*p)
	if err := d.int64(&v, strconv.IntSize); err != nil {
		return err
	}
	*p = int(v)
	return nil
}

func (d *decoder) uint64(p *uint64) error {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	u, _, err := d.integer(false, 64)
	if err == nil {
		*p = u
	}
	return err
}

func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.lit("null")
	case 't':
		*p = true
		return d.lit("true")
	case 'f':
		*p = false
		return d.lit("false")
	}
	return d.unexpected("bool")
}

func (d *decoder) string(p *string) error {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if plain {
		*p = intern(raw)
	} else {
		*p = string(unquote(raw))
	}
	return nil
}

// traceID decodes the trace_id field as obs.TraceID's UnmarshalJSON
// does: a hex string of at most 64 bits ("" and null are zero).
func (d *decoder) traceID(p *obs.TraceID) error {
	if d.peek() == 'n' {
		*p = 0
		return d.lit("null")
	}
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if !plain {
		raw = unquote(raw)
	}
	var v obs.TraceID
	for i, c := range raw {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return d.errorf("trace id %q: bad hex digit at %d", raw, i)
		}
		if v>>60 != 0 {
			return d.errorf("trace id %q out of range", raw)
		}
		v = v<<4 | obs.TraceID(c)
	}
	*p = v
	return nil
}

// skip consumes one value of any type — the value of an unknown key —
// validating it. It keeps its own stack of open containers instead of
// recursing, so nesting costs one byte a level, up to maxDepth.
func (d *decoder) skip() error {
	var buf [64]byte
	open := buf[:0] // '{' or '[' for each container skip is inside
	for {
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.push(); err != nil {
				return err
			}
			if d.peek() == closer(c) {
				d.pop()
				break
			}
			open = append(open, c)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case 'n':
			if err := d.lit("null"); err != nil {
				return err
			}
		case 't':
			if err := d.lit("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.lit("false"); err != nil {
				return err
			}
		default:
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close the containers it completes, then step
		// to the next element of the innermost one still open.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			c := d.peek()
			if c == closer(top) {
				d.pop()
				open = open[:len(open)-1]
				continue
			}
			if c != ',' {
				return d.unexpected("',' or " + string(closer(top)))
			}
			d.off++
			if top == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// closer returns the byte that closes the container c opens.
func closer(c byte) byte {
	if c == '{' {
		return '}'
	}
	return ']'
}

// key consumes an object key and its colon and returns the key,
// unquoted.
func (d *decoder) key() ([]byte, error) {
	raw, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	if !plain {
		raw = unquote(raw)
	}
	if d.peek() != ':' {
		return nil, d.unexpected("':'")
	}
	d.off++
	return raw, nil
}

// object decodes an object, calling field for each key with the
// decoder positioned at the value; field must consume it.
func (d *decoder) object(field func(key []byte) error) error {
	if d.peek() != '{' {
		return d.unexpected("object")
	}
	if err := d.push(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pop()
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.pop()
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// match returns the field name key selects: an exact match, else the
// first case-insensitive one, else "" (an unknown key).
func match(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n
		}
	}
	return ""
}

// hop consumes the quoted hop name that starts at the offset, with no
// whitespace before it, and returns its hopNames entry; ok is false,
// and nothing is consumed, when anything else is there.
func (d *decoder) hop() (h string, ok bool) {
	if len(d.data)-d.off < 4 {
		return "", false
	}
	q := d.data[d.off : d.off+4]
	if q[0] != '"' || q[3] != '"' {
		return "", false
	}
	i, ok := hopIndex(q[1:3])
	if !ok {
		return "", false
	}
	d.off += 4
	return hopNames[2*i : 2*i+2], true
}

// presize returns the capacity to give the non-empty array whose first
// element is at the offset, capped at maxPresize. A string array has
// one more element than commas outside its strings, and ends at the
// first ']' outside them: counting every comma before the first ']'
// is exact on hop paths and elsewhere only changes how often the
// slice grows. That scan stops at the array's end or sooner (or where
// the parse then fails), so a parse reads each byte at most once more.
// A batch array holds objects, at most as many as the '{' bytes to the
// end of the frame, less, for responses, the anchor objects the
// encoder writes inside them; only the first batch array, the frame's
// own, is sized, so that scan too runs once.
func presize[T Request | Response | string](d *decoder) int {
	rest := d.data[d.off:]
	var n int
	switch any((*T)(nil)).(type) {
	case *string:
		if end := bytes.IndexByte(rest, ']'); end >= 0 {
			rest = rest[:end]
		}
		n = bytes.Count(rest, []byte{','}) + 1
	default:
		if d.batchSized {
			return 0
		}
		d.batchSized = true
		n = bytes.Count(rest, []byte{'{'})
		if _, ok := any((*T)(nil)).(*Response); ok {
			n -= bytes.Count(rest, []byte(`"anchor":{`))
		}
	}
	return min(n, maxPresize)
}

// decodeSlice decodes an array into s, reusing s's elements and
// storage as encoding/json does: it decodes into whatever elements s
// already holds (up to its capacity), grows it with zero elements,
// and leaves a non-nil empty slice for []. It sizes the slice once,
// by presize, before the first element.
func decodeSlice[T Request | Response | string](d *decoder, s []T) ([]T, error) {
	switch d.peek() {
	case 'n':
		return nil, d.lit("null")
	case '[':
	default:
		return s, d.unexpected("array")
	}
	if err := d.push(); err != nil {
		return s, err
	}
	if d.peek() == ']' {
		d.pop()
		return make([]T, 0), nil
	}
	if n := presize[T](d); n > cap(s) {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		s = grown[:len(s)]
	}
	for i := 0; ; i++ {
		if i == len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		// A type switch, not a func value: escape analysis keeps the
		// decoder on the caller's stack only across direct calls.
		var err error
		switch e := any(&s[i]).(type) {
		case *Request:
			err = d.request(e)
		case *Response:
			err = d.response(e)
		case *string:
			if h, ok := d.hop(); ok {
				*e = h
			} else {
				err = d.string(e)
			}
		}
		if err != nil {
			return s, err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.pop()
			return s[:i+1], nil
		default:
			return s, d.unexpected("',' or ']'")
		}
	}
}

var requestFields = []string{"id", "kind", "d", "k", "src", "dst", "mode", "deadline_ms", "batch", "trace_id", "fwd"}

// request decodes a Request object (or null) into r.
func (d *decoder) request(r *Request) error {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	return d.object(func(key []byte) error {
		var err error
		switch match(key, requestFields) {
		case "id":
			return d.uint64(&r.ID)
		case "kind":
			return d.string(&r.Kind)
		case "d":
			return d.int(&r.D)
		case "k":
			return d.int(&r.K)
		case "src":
			return d.string(&r.Src)
		case "dst":
			return d.string(&r.Dst)
		case "mode":
			return d.string(&r.Mode)
		case "deadline_ms":
			return d.int64(&r.DeadlineMS, 64)
		case "batch":
			r.Batch, err = decodeSlice(d, r.Batch)
			return err
		case "trace_id":
			return d.traceID(&r.TraceID)
		case "fwd":
			return d.forward(&r.Fwd)
		}
		return d.skip()
	})
}

var forwardFields = []string{"origin", "key", "imag", "remaining", "final", "hops", "ttl"}

// forward decodes a ForwardState object into *p (allocating it), or
// null (clearing it).
func (d *decoder) forward(p **ForwardState) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.lit("null")
	case '{':
		if *p == nil {
			*p = new(ForwardState)
		}
	}
	f := *p
	return d.object(func(key []byte) error {
		switch match(key, forwardFields) {
		case "origin":
			return d.string(&f.Origin)
		case "key":
			return d.string(&f.Key)
		case "imag":
			return d.string(&f.Imag)
		case "remaining":
			return d.int(&f.Remaining)
		case "final":
			return d.bool(&f.Final)
		case "hops":
			return d.int(&f.Hops)
		case "ttl":
			return d.int(&f.TTL)
		}
		return d.skip()
	})
}

var responseFields = []string{"id", "status", "degrade", "cached", "distance", "path", "anchor", "next_hop", "done", "bounds", "shed_reason", "error", "batch", "trace_id"}

// response decodes a Response object (or null) into r.
func (d *decoder) response(r *Response) error {
	if d.peek() == 'n' {
		return d.lit("null")
	}
	return d.object(func(key []byte) error {
		var err error
		switch match(key, responseFields) {
		case "id":
			return d.uint64(&r.ID)
		case "status":
			return d.string(&r.Status)
		case "degrade":
			return d.string(&r.Degrade)
		case "cached":
			return d.bool(&r.Cached)
		case "distance":
			return d.int(&r.Distance)
		case "path":
			r.Path, err = decodeSlice(d, r.Path)
			return err
		case "anchor":
			return d.anchor(&r.Anchor)
		case "next_hop":
			return d.string(&r.NextHop)
		case "done":
			return d.bool(&r.Done)
		case "bounds":
			return d.bounds(&r.Bounds)
		case "shed_reason":
			return d.string(&r.ShedReason)
		case "error":
			return d.string(&r.Error)
		case "batch":
			r.Batch, err = decodeSlice(d, r.Batch)
			return err
		case "trace_id":
			return d.traceID(&r.TraceID)
		}
		return d.skip()
	})
}

var boundsFields = []string{"lo", "hi"}

// bounds decodes a Bounds object into *p (allocating it), or null
// (clearing it).
func (d *decoder) bounds(p **Bounds) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.lit("null")
	case '{':
		if *p == nil {
			*p = new(Bounds)
		}
	}
	b := *p
	return d.object(func(key []byte) error {
		switch match(key, boundsFields) {
		case "lo":
			return d.int(&b.Lo)
		case "hi":
			return d.int(&b.Hi)
		}
		return d.skip()
	})
}

var anchorFields = []string{"line", "l", "s", "t", "theta"}

// anchor decodes a core.Anchor object into *p (a new one unless a
// repeated key already set it), or null (clearing it).
func (d *decoder) anchor(p **core.Anchor) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.lit("null")
	case '{':
		if *p == nil {
			*p = new(core.Anchor)
		}
	}
	a := *p
	return d.object(func(key []byte) error {
		switch match(key, anchorFields) {
		case "line":
			return d.int(&a.Line)
		case "l":
			return d.int(&a.L)
		case "s":
			return d.int(&a.S)
		case "t":
			return d.int(&a.T)
		case "theta":
			return d.int(&a.Theta)
		}
		return d.skip()
	})
}

// intern returns the string raw spells, without allocating when it is
// a hop name or another word of the protocol's fixed vocabulary.
func intern(raw []byte) string {
	if i, ok := hopIndex(raw); ok {
		return hopNames[2*i : 2*i+2]
	}
	switch string(raw) {
	case "":
		return ""
	case "distance":
		return "distance"
	case "route":
		return "route"
	case "nexthop":
		return "nexthop"
	case "batch":
		return "batch"
	case "undirected":
		return "undirected"
	case "directed":
		return "directed"
	case StatusOK:
		return StatusOK
	case StatusShed:
		return StatusShed
	case StatusError:
		return StatusError
	case "detour":
		return "detour"
	case "bounds":
		return "bounds"
	}
	return string(raw)
}
