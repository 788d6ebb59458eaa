package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

// hopNamesOf renders a path as the wire's hop names.
func hopNamesOf(p core.Path) []string {
	if len(p) == 0 {
		return nil
	}
	out := make([]string, len(p))
	for i, h := range p {
		out[i] = FormatHop(h)
	}
	return out
}

// cannedClient returns a Client whose peer answers every request frame
// with respond's response, stamped with the request's id.
func cannedClient(t *testing.T, respond func(Request) Response) *Client {
	t.Helper()
	near, far := net.Pipe()
	c := NewClient(near)
	t.Cleanup(func() { c.Close() })
	go func() {
		defer far.Close()
		for {
			body, err := ReadFrame(far, 0)
			if err != nil {
				return
			}
			req, err := ParseRequest(body)
			if err != nil {
				return
			}
			resp := respond(req)
			resp.ID = req.ID
			if WriteFrame(far, &resp) != nil {
				return
			}
		}
	}()
	return c
}

// TestClientExpandsAnchors sends undirected, directed and self routes
// and a 16-query DG(2,256) batch to a real server: the frames carry
// anchors, and Client.Do hands back Algorithm 2's and Algorithm 1's
// paths hop for hop, with the anchors kept.
func TestClientExpandsAnchors(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, CacheSize: 64})
	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	x, y := word.Random(2, 10, rng), word.Random(2, 10, rng)
	wantU, _ := core.RouteUndirected(x, y)
	wantD, _ := core.RouteDirected(x, y)
	for _, tc := range []struct {
		req  Request
		want core.Path
	}{
		{RouteRequest(x, y, Undirected), wantU},
		{RouteRequest(x, y, Directed), wantD},
		{RouteRequest(x, x, Undirected), nil},
		{RouteRequest(x, x, Directed), nil},
	} {
		for range 2 { // a miss, then a cache hit
			resp, err := c.Do(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Anchor == nil || !slices.Equal(resp.Path, hopNamesOf(tc.want)) || resp.Distance != len(tc.want) {
				t.Fatalf("%s %s->%s: anchor %v, path %v, distance %d; want %v", tc.req.Mode, tc.req.Src, tc.req.Dst, resp.Anchor, resp.Path, resp.Distance, tc.want)
			}
		}
	}

	req := BatchRequest()
	var want [][]string
	for i := 0; i < 16; i++ {
		x, y := word.Random(2, 256, rng), word.Random(2, 256, rng)
		if i%2 == 0 {
			req.Batch = append(req.Batch, RouteRequest(x, y, Undirected))
			p, _ := core.RouteUndirected(x, y)
			want = append(want, hopNamesOf(p))
		} else {
			req.Batch = append(req.Batch, DistanceRequest(x, y, Undirected))
			want = append(want, nil)
		}
	}
	resp, err := c.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range resp.Batch {
		if !slices.Equal(sub.Path, want[i]) || (sub.Anchor != nil) != (i%2 == 0) {
			t.Fatalf("batch item %d: anchor %v, path %v; want %v", i, sub.Anchor, sub.Path, want[i])
		}
	}
}

// TestClientRejectsMalformedAnchors answers a DG(2,6) route request
// with anchors that cannot be its full-fidelity answer: Client.Do must
// return an ErrBadFrame error and no path, and never panic.
func TestClientRejectsMalformedAnchors(t *testing.T) {
	x, y := word.MustParse(2, "011010"), word.MustParse(2, "110100")
	a, err := core.NewKernels(core.KernelConfig{}).RouteAnchor(x, y)
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := a.Hops(6)
	route := RouteRequest(x, y, Undirected)
	ok := Response{Status: StatusOK, Distance: dist, Anchor: &a}
	with := func(f func(*Response)) Response {
		r := ok
		anchor := *ok.Anchor
		r.Anchor = &anchor
		f(&r)
		return r
	}
	at := func(f func(*core.Anchor)) Response { return with(func(r *Response) { f(r.Anchor) }) }
	for _, tc := range []struct {
		name string
		req  Request
		resp Response
	}{
		{"s below range", route, at(func(a *core.Anchor) { a.S = 0 })},
		{"s past k", route, at(func(a *core.Anchor) { a.S = 7 })},
		{"t past k", route, at(func(a *core.Anchor) { a.T = math.MaxInt })},
		{"negative theta", route, at(func(a *core.Anchor) { a.Theta = -1 })},
		{"theta past its bound", route, at(func(a *core.Anchor) { a.Theta = 7 })},
		{"unknown line", route, at(func(a *core.Anchor) { a.Line = 7 })},
		{"zero anchor", route, at(func(a *core.Anchor) { *a = core.Anchor{} })},
		{"line 1 on an undirected route", route, at(func(a *core.Anchor) { *a = core.Anchor{Line: 1, L: 6 - dist} })},
		{"line 6 on a directed route", RouteRequest(x, y, Directed), at(func(a *core.Anchor) { *a = core.Anchor{Line: 6} })},
		{"one hop too many", route, with(func(r *Response) { r.Distance++ })},
		{"one hop too few", route, with(func(r *Response) { r.Distance-- })},
		{"in range but not joining src to dst", route, with(func(r *Response) {
			*r.Anchor = core.Anchor{Line: 8, S: 1, T: 6, Theta: 5}
			r.Distance = 1
		})},
		{"distance answer", DistanceRequest(x, y, Undirected), ok},
		{"next-hop answer", NextHopRequest(x, y, Undirected), ok},
		{"degraded answer", route, with(func(r *Response) { r.Degrade = "distance" })},
		{"detour answer", route, with(func(r *Response) { r.Degrade = "detour" })},
		{"shed answer", route, with(func(r *Response) { r.Status = StatusShed })},
		{"dst digit outside base 2", Request{Kind: "route", D: 2, K: 6, Src: "011010", Dst: "110120"}, ok},
		{"upper-case dst digit", Request{Kind: "route", D: 16, K: 6, Src: "011010", Dst: "1101A0"}, ok},
		{"src digit outside base", Request{Kind: "route", D: 2, K: 6, Src: "01101z", Dst: "110100"}, ok},
		{"dst shorter than k", Request{Kind: "route", D: 2, K: 6, Src: "011010", Dst: "11010"}, ok},
		{"base out of range", Request{Kind: "route", D: 37, K: 6, Src: "011010", Dst: "110100"}, ok},
		{"unknown mode", Request{Kind: "route", D: 2, K: 6, Src: "011010", Dst: "110100", Mode: "sideways"}, ok},
		{"batch item with no request", BatchRequest(route), Response{Status: StatusOK, Batch: []Response{ok, ok}}},
		{"anchor on a batch answer", BatchRequest(route), ok},
		{"anchor nested under a scalar answer", route, Response{Status: StatusOK, Batch: []Response{ok}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Also as a cluster node's forwarded request, whose
			// anchors are checked and not expanded.
			for _, fwd := range []*ForwardState{nil, {}} {
				c := cannedClient(t, func(Request) Response { return tc.resp })
				req := tc.req
				req.Fwd = fwd
				resp, err := c.Do(context.Background(), req)
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("fwd %v: Do = %+v, %v; want an ErrBadFrame error", fwd, resp, err)
				}
				if resp.Path != nil || len(resp.Batch) != 0 {
					t.Fatalf("fwd %v: failed Do returned paths: %+v", fwd, resp)
				}
			}
		})
	}
	c := cannedClient(t, func(Request) Response { return ok })
	resp, err := c.Do(context.Background(), route)
	want, _ := core.RouteUndirected(x, y)
	if err != nil || !slices.Equal(resp.Path, hopNamesOf(want)) {
		t.Fatalf("well-formed anchor: %+v, %v; want path %v", resp, err, want)
	}
	// The answer to a forwarded request keeps its anchor and gets no
	// path.
	fwd := route
	fwd.Fwd = &ForwardState{Origin: "n0", Hops: 1}
	resp, err = c.Do(context.Background(), fwd)
	if err != nil || resp.Path != nil || resp.Anchor == nil || *resp.Anchor != a {
		t.Fatalf("well-formed anchor of a forwarded request: %+v, %v; want anchor %+v and no path", resp, err, a)
	}
}

// FuzzAnchorExpand throws arbitrary anchors, distances and addresses
// at Expander.Expand: nothing may panic, every failure is an
// ErrBadFrame error, Check accepts exactly what Expand accepts, an
// accepted anchor's path is a walk of exactly the answer's distance
// from src to dst, and the canonical anchor of a valid route query
// yields Algorithm 2's (or Algorithm 1's) path hop for hop.
func FuzzAnchorExpand(f *testing.F) {
	f.Add(uint8(2), "011010", "110100", false, 8, 0, 2, 4, 3, 3)
	f.Add(uint8(2), "011010", "110100", true, 1, 3, 0, 0, 0, 3)
	f.Add(uint8(3), "0120", "2011", false, 9, 0, 1, 3, 1, 3)
	f.Add(uint8(4), "0123", "3210", false, 6, 0, 0, 0, 0, 4)
	f.Add(uint8(2), "0110", "0110", false, 8, 0, 1, 4, 4, 0)
	f.Add(uint8(2), "0110", "0112", false, 6, 0, 0, 0, 0, 4)
	f.Add(uint8(16), "ab", "AB", false, 6, 0, 0, 0, 0, 2)
	f.Add(uint8(2), "01", "10", false, 8, 0, math.MaxInt, math.MinInt, -1, 1)
	f.Fuzz(func(t *testing.T, d uint8, src, dst string, directed bool, line, l, s, tt, theta, dist int) {
		mode := Undirected
		if directed {
			mode = Directed
		}
		req := Request{Kind: "route", D: int(d), K: len(dst), Src: src, Dst: dst, Mode: mode.String()}
		a := core.Anchor{Line: line, L: l, S: s, T: tt, Theta: theta}
		resp := Response{Status: StatusOK, Distance: dist, Anchor: &a}
		var ex Expander
		checked := resp
		cerr := ex.Check(&req, &checked)
		err := ex.Expand(&req, &resp)
		if err != nil && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("error outside ErrBadFrame: %v", err)
		}
		if (cerr == nil) != (err == nil) || checked.Path != nil {
			t.Fatalf("anchor %+v: Check = %v with path %v, Expand = %v", a, cerr, checked.Path, err)
		}
		q, qerr := ParseQuery(req)
		if err == nil {
			// Accepted: the request is a valid query, and the path is a
			// walk of the answer's distance from src to dst.
			if qerr != nil {
				t.Fatalf("anchor %+v accepted for an invalid query %+v: %v", a, req, qerr)
			}
			p := make(core.Path, len(resp.Path))
			for i, h := range resp.Path {
				if p[i], err = ParseHop(h); err != nil {
					t.Fatal(err)
				}
			}
			end, err := p.Apply(q.Src, core.FirstDigit)
			if len(p) != dist || err != nil || !end.Equal(q.Dst) {
				t.Fatalf("anchor %+v: path %v of %d hops ends at %v (%v), want %d hops to %v", a, resp.Path, len(p), end, err, dist, q.Dst)
			}
		}
		if qerr != nil || len(src) > 512 {
			return
		}
		// The canonical anchor of the valid query must expand to the
		// reference path.
		kn := core.NewKernels(core.KernelConfig{TableBudget: -1})
		want, werr := core.RouteUndirected(q.Src, q.Dst)
		ca, cerr := kn.RouteAnchor(q.Src, q.Dst)
		if directed {
			want, werr = core.RouteDirected(q.Src, q.Dst)
			ca, cerr = kn.RouteAnchorDirected(q.Src, q.Dst)
		}
		if werr != nil || cerr != nil {
			t.Fatal(werr, cerr)
		}
		resp = Response{Status: StatusOK, Distance: len(want), Anchor: &ca}
		if err := ex.Expand(&req, &resp); err != nil || !slices.Equal(resp.Path, hopNamesOf(want)) {
			t.Fatalf("canonical anchor %+v of %s->%s: %v, %v; want %v", ca, src, dst, resp.Path, err, want)
		}
	})
}

// TestClientExpandsAnchorsConcurrently shares one client between
// goroutines that send batches of routes, some under an already
// canceled context, and overwrite their batch as soon as Do returns:
// the reader expands anchors against the caller's request, so under
// -race this catches it still reading a request Do has given back.
func TestClientExpandsAnchorsConcurrently(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, CacheSize: 64})
	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				x, y := word.Random(2, 12, rng), word.Random(2, 12, rng)
				want, _ := core.RouteUndirected(x, y)
				req := BatchRequest(RouteRequest(x, y, Undirected), DistanceRequest(x, y, Undirected))
				ctx := context.Background()
				if i%3 == 0 {
					ctx = canceled
				}
				resp, err := c.Do(ctx, req)
				req.Batch[0] = Request{} // the caller owns its request again
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("Do: %v", err)
					}
					continue
				}
				if got := resp.Batch[0].Path; !slices.Equal(got, hopNamesOf(want)) {
					t.Errorf("route %v->%v: path %v, want %v", x, y, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
