package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/word"
)

// The hand codec is pinned to encoding/json, the test-only reference:
// its encoder must emit json.Marshal's bytes, and its decoders must
// accept exactly the bodies json.Unmarshal accepts and yield the same
// value.

// checkRequestDecode compares ParseRequest with json.Unmarshal on one
// body and, when both accept it, the encoder with json.Marshal on the
// decoded value.
func checkRequestDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := ParseRequest(body)
	var want Request
	jerr := json.Unmarshal(body, &want)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("body %q: ParseRequest err = %v, json.Unmarshal err = %v", body, err, jerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nParseRequest   = %#v\njson.Unmarshal = %#v", body, got, want)
	}
	checkRequestEncode(t, &got)
}

// checkResponseDecode is checkRequestDecode for responses, plus the
// round trip: decoding the encoder's output re-encodes to the same
// bytes.
func checkResponseDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := ParseResponse(body)
	var want Response
	jerr := json.Unmarshal(body, &want)
	if (err == nil) != (jerr == nil) {
		t.Fatalf("body %q: ParseResponse err = %v, json.Unmarshal err = %v", body, err, jerr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nParseResponse  = %#v\njson.Unmarshal = %#v", body, got, want)
	}
	enc := checkResponseEncode(t, &got)
	again, err := ParseResponse(enc)
	if err != nil {
		t.Fatalf("ParseResponse of its own encoding %q: %v", enc, err)
	}
	if re := appendResponse(nil, &again); !bytes.Equal(re, enc) {
		t.Fatalf("round trip moved the bytes:\nfirst  %s\nsecond %s", enc, re)
	}
}

func checkRequestEncode(t *testing.T, r *Request) []byte {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRequest(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("request encoding of %#v:\ncodec %s\njson  %s", r, got, want)
	}
	return want
}

func checkResponseEncode(t *testing.T, r *Response) []byte {
	t.Helper()
	var v any = r
	if r != nil {
		v = dropAnchoredPaths(*r)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendResponse(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("response encoding of %#v:\ncodec %s\njson  %s", r, got, want)
	}
	return want
}

// dropAnchoredPaths returns a copy of r without the paths the encoder
// leaves out: those next to an anchor, which stands for them.
func dropAnchoredPaths(r Response) Response {
	if r.Anchor != nil {
		r.Path = nil
	}
	if r.Batch != nil {
		batch := make([]Response, len(r.Batch))
		for i := range r.Batch {
			batch[i] = dropAnchoredPaths(r.Batch[i])
		}
		r.Batch = batch
	}
	return r
}

// awkward holds strings json.Marshal escapes: HTML characters, the
// JavaScript line separators, invalid UTF-8, control characters,
// quotes and backslashes.
var awkward = []string{
	"<a href=\"x\">&amp;</a>",
	"line\u2028para\u2029end",
	"bad \xff\xfe utf8 \xed\xa0\x80 surrogate",
	"ctl \x00\x01\b\f\n\r\t\x1f\x7f",
	`back\slash "quoted" /slash`,
	"ünïcødé ✓ 𝄞",
}

// TestEncoderMatchesJSON pins encoder output byte-for-byte to
// json.Marshal over every field and shape.
func TestEncoderMatchesJSON(t *testing.T) {
	reqs := []Request{
		{},
		{ID: 1<<64 - 1, Kind: "route", D: 2, K: 4, Src: "0110", Dst: "1001", Mode: "directed", DeadlineMS: -5},
		{Kind: "batch", TraceID: 0xabc, Batch: []Request{
			{ID: 3, Kind: "distance", D: 36, K: 1, Src: "z", Dst: "0"},
			{Kind: "batch", Batch: []Request{{Kind: "nexthop", D: -1, K: -9}}},
		}},
		{Kind: "route", TraceID: 1<<64 - 1, Fwd: &ForwardState{Origin: "n0", Key: "0101", Imag: "1", Remaining: 3, Final: true, Hops: 2, TTL: -1}},
		{Kind: "route", Fwd: &ForwardState{}},
	}
	for _, s := range awkward {
		reqs = append(reqs, Request{Kind: s, Src: s, Dst: s, Mode: s, Fwd: &ForwardState{Origin: s, Key: s, Imag: s}})
	}
	for i := range reqs {
		checkRequestEncode(t, &reqs[i])
	}
	var nilReq *Request
	checkRequestEncode(t, nilReq)

	resps := []Response{
		{},
		{ID: 9, Status: StatusOK, Distance: 3, Path: []string{"L0", "R*", "L1"}, Cached: true},
		{Status: StatusOK, Degrade: "bounds", Bounds: &Bounds{Lo: -1, Hi: 7}},
		{Status: StatusOK, Bounds: &Bounds{}, NextHop: "R3", Done: true, TraceID: 0x1},
		{Status: StatusShed, ShedReason: "queue_full", Path: []string{}},
		{Status: "unknown", TraceID: 0xfedcba9876543210},
		{Status: StatusOK, Degrade: "distance", Batch: []Response{
			{ID: 1, Status: StatusOK, Path: []string{"L1"}},
			{ID: 2, Status: StatusError, Error: "bad", Batch: []Response{{Status: StatusOK}}},
		}},
		{ID: 10, Status: StatusOK, Distance: 4, Anchor: &core.Anchor{Line: 8, S: 3, T: 200, Theta: 41}},
		{Status: StatusOK, Anchor: &core.Anchor{}},
		{Status: StatusOK, Anchor: &core.Anchor{Line: 1, L: -7, S: 1, T: 1<<31 - 1, Theta: -1 << 31}},
		{Status: StatusOK, Batch: []Response{
			{ID: 1, Status: StatusOK, Distance: 6, Anchor: &core.Anchor{Line: 6}},
			{ID: 2, Status: StatusOK, Distance: 2},
			{ID: 3, Status: StatusOK, Distance: 1, Anchor: &core.Anchor{Line: 9, S: 2, T: 1, Theta: 2}},
		}},
	}
	for _, s := range awkward {
		resps = append(resps, Response{Status: s, Degrade: s, Path: []string{s, s}, NextHop: s, ShedReason: s, Error: s})
	}
	for i := range resps {
		checkResponseEncode(t, &resps[i])
		checkResponseDecode(t, appendResponse(nil, &resps[i]))
	}
	var nilResp *Response
	checkResponseEncode(t, nilResp)
}

// TestDecoderMatchesJSON feeds both decoders bodies that exercise
// json.Unmarshal's corners: null, unknown and mis-cased keys, duplicate
// keys merging into earlier values, escapes and surrogates, number
// edge cases and malformed syntax.
func TestDecoderMatchesJSON(t *testing.T) {
	reqs := []string{
		`null`, ` null `, `{}`, `[]`, `"x"`, `1`, `true`, ``, ` `, `{`, `{}}`, `{} x`, "{}\x00", "\x00", "{\"id\":1\x00}",
		`{"id":7,"kind":"route","d":2,"k":4,"src":"0110","dst":"1001"}`,
		` { "id" : 7 , "kind" : "route" } `,
		"{\"id\":7,\n\t\"kind\":\"route\"\r}",
		`{"kind":null,"d":null,"id":null,"batch":null,"fwd":null,"trace_id":null,"mode":null}`,
		`{"kind":"x","kind":null}`,
		`{"ID":1,"KIND":"route","Src":"01","dSt":"10","Deadline_MS":5,"TRACE_ID":"ab","FWD":{"ORIGIN":"o"}}`,
		"{\"\u017frc\":\"01\",\"\u212a\":3,\"\u212aind\":\"route\"}",
		`{"\u0069d":5,"k\u0069nd":"r\u006fute"}`,
		`{"unknown":{"a":[1,2,{"b":null}],"c":"d"},"also":[],"more":{},"id":3}`,
		`{"x":[[[[[]]]]],"y":-1.5e+10,"z":true,"w":false,"v":"\u00e9"}`,
		`{"id":1.0}`, `{"id":1e2}`, `{"id":-1}`, `{"id":-0}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
		`{"d":-0}`, `{"d":9223372036854775807}`, `{"d":9223372036854775808}`, `{"d":-9223372036854775808}`, `{"d":-9223372036854775809}`,
		`{"d":01}`, `{"d":1.}`, `{"d":.5}`, `{"d":-}`, `{"d":+1}`, `{"d":1e}`, `{"d":"2"}`, `{"d":true}`, `{"d":[]}`, `{"d":{}}`,
		`{"kind":1}`, `{"kind":[]}`, `{"kind":{}}`, `{"kind":true}`,
		`{"batch":[]}`, `{"batch":[null]}`, `{"batch":[{"id":1},null,{"kind":"a"}]}`, `{"batch":[1]}`, `{"batch":{}}`, `{"batch":"x"}`,
		`{"batch":[{"id":1,"kind":"a"},{"id":2}],"batch":[{"id":3},null,null]}`,
		`{"batch":[{"id":1},{"id":2},{"id":3}],"batch":[{"kind":"k"}],"batch":[null,null,null,null]}`,
		`{"batch":[{"batch":[{"batch":[{"id":9}]}]}]}`,
		`{"batch":[1,]}`, `{"batch":[,1]}`, `{"batch":[`, `{"batch":[{"id":1}`,
		`{"fwd":{"origin":"a","final":true},"fwd":{"key":"b","final":null}}`,
		`{"fwd":{"final":1}}`, `{"fwd":[]}`, `{"fwd":"x"}`, `{"fwd":{"remaining":1.5}}`,
		`{"trace_id":""}`, `{"trace_id":"00000000000000000000000abc"}`, `{"trace_id":"ABCdef"}`, `{"trace_id":"ffffffffffffffff"}`,
		`{"trace_id":"10000000000000000"}`, `{"trace_id":"0x1"}`, `{"trace_id":"1_0"}`, `{"trace_id":"-1"}`, `{"trace_id":"+1"}`,
		`{"trace_id":12}`, `{"trace_id":true}`, `{"trace_id":{}}`, `{"trace_id":"\u0061b"}`, `{"trace_id":"ab","trace_id":null}`,
		`{"src":"\ud83d\ude00"}`, `{"src":"\ud83d"}`, `{"src":"\ud83dx"}`, `{"src":"\ud83d\u0041"}`, `{"src":"\ude00\ud83d"}`,
		`{"src":"\uDEAD"}`, `{"src":"\u12"}`, `{"src":"\x"}`, `{"src":"a` + "\x01" + `"}`, "{\"src\":\"\xff\xfe\"}", "{\"src\":\"\xed\xa0\x80\"}",
		`{"src":"\"\\\/\b\f\n\r\t"}`, `{"src":"<>&` + "\u2028" + `"}`,
		`{"id":1 "kind":"a"}`, `{"id":1,}`, `{,}`, `{"id"}`, `{"id":}`, `{id:1}`, `{'id':1}`, `{"id":nul}`, `{"id":nulll}`,
		`{"x":tru}`, `{"x":[1 2]}`, `{"x":{"a" 1}}`, `{"x":{"a":1,}}`, `{"x":[}`, `{"x":]}`, "{\"x\":\xff}",
	}
	for _, b := range reqs {
		checkRequestDecode(t, []byte(b))
	}

	resps := []string{
		`null`, `{}`, `[]`,
		`{"id":1,"status":"ok","distance":3,"path":["L0","R*","L1"]}`,
		`{"path":[]}`, `{"path":null}`, `{"path":["L0",null,"x"]}`, `{"path":[1]}`, `{"path":"L0"}`,
		`{"path":["a","b","c"],"path":["x"],"path":[null,null,null,null,null]}`,
		`{"bounds":{"lo":1,"hi":2},"bounds":{"hi":5}}`, `{"bounds":{"lo":1},"bounds":null}`, `{"bounds":[]}`, `{"bounds":{"lo":"1"}}`,
		`{"cached":true,"done":false,"cached":null}`, `{"cached":1}`, `{"done":"true"}`,
		// redirect_addr is no longer a Response field: frames from servers
		// that still write it decode with the key skipped, as
		// encoding/json skips it.
		`{"STATUS":"shed","Shed_Reason":"deadline","NEXT_HOP":"R3","Redirect_Addr":"a:1"}`,
		`{"id":7,"status":"redirect","redirect_addr":"127.0.0.1:7000","trace_id":"ab"}`,
		`{"batch":[{"id":1,"path":["L1"]},{"id":2,"status":"error","error":"e"}],"degrade":"detour"}`,
		`{"batch":[{"batch":[{"bounds":{"lo":0,"hi":0}}]}]}`,
		`{"distance":-3,"distance":1e1}`, `{"trace_id":"abc","x":{"y":[null]}}`,
		`{"anchor":{"line":8,"s":3,"t":200,"theta":41},"distance":4}`, `{"anchor":null}`, `{"anchor":{}}`,
		`{"anchor":{"line":1,"l":2},"anchor":{"s":5}}`, `{"anchor":{"line":1},"anchor":null,"anchor":{"t":1}}`,
		`{"ANCHOR":{"LINE":9,"S":1,"L":2,"Theta":3,"x":[1]}}`, `{"anchor":{"line":-1,"theta":-9223372036854775808}}`,
		`{"anchor":{"line":9223372036854775808}}`, `{"anchor":{"line":1.5}}`, `{"anchor":{"line":"8"}}`, `{"anchor":[]}`, `{"anchor":8}`,
		`{"path":["L0"],"anchor":{"line":1,"l":3}}`, `{"batch":[{"anchor":{"line":6}},{"Anchor":{"line":8}},{"anchor":null},{"anchor":{"line":1}}]}`,
	}
	for _, b := range resps {
		checkResponseDecode(t, []byte(b))
	}
}

// TestDecoderDepth checks the nesting limit is encoding/json's: 10000
// levels pass and 10001 fail, inside an unknown value and through
// nested batches alike, and a frame of nothing but '[' fails fast
// instead of exhausting the stack.
func TestDecoderDepth(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		inner := depth - 1 // the top-level object is one level
		unknown := `{"x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `}`
		checkRequestDecode(t, []byte(unknown))
		checkResponseDecode(t, []byte(unknown))
	}
	for _, levels := range []int{maxDepth/2 - 1, maxDepth / 2} {
		// Each nested batch adds an array and an object.
		batch := strings.Repeat(`{"batch":[`, levels) + `{}` + strings.Repeat(`]}`, levels)
		checkRequestDecode(t, []byte(batch))
	}
	flood := bytes.Repeat([]byte("["), DefaultMaxFrame)
	if _, err := ParseRequest(append([]byte(`{"x":`), flood...)); err == nil {
		t.Fatal("a frame of '[' decoded")
	}
}

// TestHopNamesInterned checks FormatHop and the decoder hand out the
// one static table's strings: every hop name round-trips through
// ParseHop, and a decoded path shares the table's storage.
func TestHopNamesInterned(t *testing.T) {
	for _, typ := range []core.HopType{core.TypeL, core.TypeR} {
		for digit := 0; digit <= len(hopDigits); digit++ {
			h := core.Hop{Type: typ, Digit: byte(digit), Wildcard: digit == len(hopDigits)}
			if h.Wildcard {
				h.Digit = 0
			}
			s := FormatHop(h)
			if got, err := ParseHop(s); err != nil || got != h {
				t.Fatalf("ParseHop(FormatHop(%+v) = %q) = %+v, %v", h, s, got, err)
			}
			if got := intern([]byte(s)); got != s || !sameStorage(got, hopNames) {
				t.Fatalf("intern(%q) = %q: not the table entry", s, got)
			}
		}
	}
	resp, err := ParseResponse([]byte(`{"path":["L1","R*"],"next_hop":"Rz"}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(resp.Path, resp.NextHop) {
		if !sameStorage(s, hopNames) {
			t.Fatalf("decoded hop %q was not interned", s)
		}
	}
	for _, s := range []string{"L", "LLL", "X1", "L!", "R-"} {
		if _, ok := hopIndex(s); ok {
			t.Fatalf("hopIndex accepted %q", s)
		}
	}
}

// sameStorage reports whether s points into table's bytes.
func sameStorage(s, table string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	base := uintptr(unsafe.Pointer(unsafe.StringData(table)))
	return p >= base && p < base+uintptr(len(table))
}

// route64 is an answered DG(2,64) route between two seeded words —
// the response shape of scalar-zipf-k64's route requests.
func route64(t testing.TB) (Request, Answer) {
	rng := rand.New(rand.NewSource(64))
	src, dst := word.Random(2, 64, rng), word.Random(2, 64, rng)
	a, _, err := NewEngine(nil).Answer(Query{Kind: KindRoute, Src: src, Dst: dst}, LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Path) < 32 {
		t.Fatalf("route of %d hops is too short to pin allocations", len(a.Path))
	}
	req := RouteRequest(src, dst, Undirected)
	req.ID = 12345
	return req, a
}

// batch256 is a 16-query DG(2,256) batch request, routes and
// distances alternating, and its answered response: the frame shapes
// of batch-uniform-k256.
func batch256(t testing.TB) (Request, Response) {
	rng := rand.New(rand.NewSource(256))
	eng := NewEngine(nil)
	req := Request{ID: 54321, Kind: "batch"}
	resp := Response{ID: req.ID, Status: StatusOK, TraceID: 0x0123456789abcdef}
	for i := 0; i < 16; i++ {
		src, dst := word.Random(2, 256, rng), word.Random(2, 256, rng)
		q := Query{Kind: KindRoute, Src: src, Dst: dst}
		sub := RouteRequest(src, dst, Undirected)
		if i%2 == 1 {
			q.Kind, sub = KindDistance, DistanceRequest(src, dst, Undirected)
		}
		sub.ID = uint64(i + 1)
		a, _, err := eng.Answer(q, LevelFull)
		if err != nil {
			t.Fatal(err)
		}
		req.Batch = append(req.Batch, sub)
		resp.Batch = append(resp.Batch, AnswerResponse(sub.ID, q.Kind, a, false))
	}
	return req, resp
}

// TestCodecAllocations pins the codec's allocation budget on the
// frame shapes the serve benchmark sends: scalar DG(2,64) routes and
// 16-query DG(2,256) batches, route answers in anchor form. The
// server's conversion of a full route allocates its anchor and no hop
// slice. A parsed response allocates each of its anchors and, for a
// batch, the slice read ahead; a request, its addresses. The client's
// expansion of a batch's anchors is one allocation, the backing array
// of all its paths, and checking them without expanding is none.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	req, a := route64(t)
	settleTableBuilds()
	var resp Response
	if n := testing.AllocsPerRun(100, func() { resp = AnswerResponse(7, KindRoute, a, false) }); n != 1 {
		t.Errorf("AnswerResponse of a %d-hop route: %v allocs, want 1 (the anchor; no hop slice)", len(a.Path), n)
	}
	breq, bresp := batch256(t)
	for _, c := range []struct {
		name            string
		req             Request
		resp            Response
		maxResp, maxReq float64
	}{
		{"DG(2,64) route", req, resp, 1, 3},
		{"DG(2,256) batch", breq, bresp, 9, 33},
	} {
		buf := appendResponse(nil, &c.resp)
		if n := testing.AllocsPerRun(100, func() { buf = appendResponse(buf[:0], &c.resp) }); n != 0 {
			t.Errorf("%s: appendResponse into a reused buffer: %v allocs, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseResponse(buf); err != nil {
				t.Fatal(err)
			}
		}); n > c.maxResp {
			t.Errorf("%s: ParseResponse: %v allocs, want ≤ %v", c.name, n, c.maxResp)
		}
		body := appendRequest(nil, &c.req)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseRequest(body); err != nil {
				t.Fatal(err)
			}
		}); n > c.maxReq {
			t.Errorf("%s: ParseRequest: %v allocs, want ≤ %v", c.name, n, c.maxReq)
		}
		got, err := ParseResponse(buf)
		if err != nil || !reflect.DeepEqual(got, c.resp) {
			t.Fatalf("%s: ParseResponse = %+v, %v; want %+v", c.name, got, err, c.resp)
		}
		if cap(got.Batch) != len(got.Batch) {
			t.Errorf("%s: ParseResponse sized the batch of %d answers for %d", c.name, len(got.Batch), cap(got.Batch))
		}
		var ex Expander
		if n := testing.AllocsPerRun(100, func() {
			if err := ex.Expand(&c.req, &got); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Expander.Expand: %v allocs, want 1", c.name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := ex.Check(&c.req, &got); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Expander.Check: %v allocs, want 0", c.name, n)
		}
		if got, err := ParseRequest(body); err != nil || !reflect.DeepEqual(got, c.req) {
			t.Fatalf("%s: ParseRequest = %+v, %v; want %+v", c.name, got, err, c.req)
		}
	}
}
