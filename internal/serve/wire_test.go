package serve

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/word"
)

func mustWord(t *testing.T, base int, s string) word.Word {
	t.Helper()
	w, err := word.Parse(base, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFrameRoundTrip checks WriteFrame/ReadFrame over several frames
// on one stream.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []Request{
		DistanceRequest(mustWord(t, 2, "0110"), mustWord(t, 2, "1001"), Undirected),
		RouteRequest(mustWord(t, 4, "0123"), mustWord(t, 4, "3210"), Directed),
		BatchRequest(NextHopRequest(mustWord(t, 2, "01"), mustWord(t, 2, "10"), Undirected)),
	}
	for _, req := range reqs {
		if err := WriteFrame(&buf, &req); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range reqs {
		body, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := ParseRequest(body)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst || len(got.Batch) != len(want.Batch) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

// TestReadFrameLimits checks the size cap and the torn-frame error.
func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Request{Kind: "distance"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 4); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("undersized limit: err = %v, want ErrFrameTooBig", err)
	}

	// A header promising more bytes than the stream holds is a tear,
	// not a clean EOF.
	tear := []byte{0, 0, 0, 10, 'x', 'y'}
	if _, err := ReadFrame(bytes.NewReader(tear), 0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn body: err = %v, want ErrBadFrame", err)
	}
	// A partial header is also a tear.
	if _, err := ReadFrame(strings.NewReader("\x00\x00"), 0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn header: err = %v, want ErrBadFrame", err)
	}
}

// TestParseQueryErrors checks structural validation wraps ErrBadQuery.
func TestParseQueryErrors(t *testing.T) {
	good := Request{Kind: "distance", D: 2, K: 4, Src: "0110", Dst: "1001"}
	if _, err := ParseQuery(good); err != nil {
		t.Fatalf("good query rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Request)
	}{
		{"unknown kind", func(r *Request) { r.Kind = "shortest" }},
		{"nested batch", func(r *Request) { r.Kind = "batch" }},
		{"unknown mode", func(r *Request) { r.Mode = "sideways" }},
		{"d too small", func(r *Request) { r.D = 1 }},
		{"d too large", func(r *Request) { r.D = 99 }},
		{"k zero", func(r *Request) { r.K = 0 }},
		{"src wrong length", func(r *Request) { r.Src = "011" }},
		{"dst not base-d", func(r *Request) { r.Dst = "0172" }},
	}
	for _, tc := range cases {
		req := good
		tc.mut(&req)
		if _, err := ParseQuery(req); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", tc.name, err)
		}
	}
}

// TestParseBatchErrors checks batch-level validation.
func TestParseBatchErrors(t *testing.T) {
	item := Request{Kind: "distance", D: 2, K: 2, Src: "01", Dst: "10"}
	if qs, err := parseBatch(Request{Kind: "batch", Batch: []Request{item, item}}); err != nil || len(qs) != 2 {
		t.Fatalf("good batch: %v, %v", qs, err)
	}
	if _, err := parseBatch(Request{Kind: "batch"}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("empty batch: err = %v, want ErrBadQuery", err)
	}
	big := Request{Kind: "batch", Batch: make([]Request, MaxBatch+1)}
	for i := range big.Batch {
		big.Batch[i] = item
	}
	if _, err := parseBatch(big); !errors.Is(err, ErrBadQuery) {
		t.Errorf("oversized batch: err = %v, want ErrBadQuery", err)
	}
	bad := Request{Kind: "batch", Batch: []Request{item, {Kind: "batch", Batch: []Request{item}}}}
	if _, err := parseBatch(bad); !errors.Is(err, ErrBadQuery) {
		t.Errorf("nested batch: err = %v, want ErrBadQuery", err)
	}
}

// TestHopRoundTrip checks FormatHop/ParseHop over every hop shape.
func TestHopRoundTrip(t *testing.T) {
	hops := []core.Hop{
		core.L(0), core.L(3), core.L(35),
		core.R(0), core.R(9),
		{Type: core.TypeL, Wildcard: true},
		{Type: core.TypeR, Wildcard: true},
	}
	for _, h := range hops {
		s := FormatHop(h)
		got, err := ParseHop(s)
		if err != nil {
			t.Fatalf("ParseHop(%q): %v", s, err)
		}
		if got != h {
			t.Fatalf("round trip %v -> %q -> %v", h, s, got)
		}
	}
	for _, s := range []string{"", "L", "X3", "L!", "L33"} {
		if _, err := ParseHop(s); err == nil {
			t.Errorf("ParseHop(%q) accepted", s)
		}
	}
}

// TestAnswerResponseShapes checks the payload fields per kind and
// degrade rung.
func TestAnswerResponseShapes(t *testing.T) {
	anchor := core.Anchor{Line: 1, L: 1}
	full := AnswerResponse(1, KindRoute, Answer{Distance: 2, Path: core.Path{core.L(1), core.L(0)}, Anchor: anchor}, false)
	if full.Status != StatusOK || full.Degrade != "" || full.Distance != 2 || full.Path != nil || full.Anchor == nil || *full.Anchor != anchor {
		t.Fatalf("full route response = %+v", full)
	}
	detour := AnswerResponse(6, KindRoute, Answer{Distance: 2, Path: core.Path{core.R(1), core.LStar()}, Anchor: anchor, Level: LevelDetour}, false)
	if detour.Degrade != "detour" || !slices.Equal(detour.Path, []string{"R1", "L*"}) || detour.Anchor != nil {
		t.Fatalf("detour route response = %+v", detour)
	}
	deg := AnswerResponse(2, KindRoute, Answer{Distance: 2, Level: LevelDistance}, false)
	if deg.Degrade != "distance" || deg.Path != nil || deg.Distance != 2 {
		t.Fatalf("degraded route response = %+v", deg)
	}
	bounds := AnswerResponse(3, KindDistance, Answer{Level: LevelBounds, Lo: 1, Hi: 5}, false)
	if bounds.Degrade != "bounds" || bounds.Bounds == nil || bounds.Bounds.Hi != 5 {
		t.Fatalf("bounds response = %+v", bounds)
	}
	done := AnswerResponse(4, KindNextHop, Answer{HasHop: false}, true)
	if !done.Done || done.NextHop != "" || !done.Cached {
		t.Fatalf("self-pair nexthop response = %+v", done)
	}
	shed := shedResponse(5, shedQueueFull)
	if shed.Status != StatusShed || shed.ShedReason != "queue_full" {
		t.Fatalf("shed response = %+v", shed)
	}
}
