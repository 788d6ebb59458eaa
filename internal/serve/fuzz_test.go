package serve

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzServeDecode throws arbitrary bytes at the frame reader and the
// request parser/validator chain: nothing may panic, errors must stay
// within the package's typed families, and anything that parses must
// re-encode and re-parse to the same query. The input, taken whole as
// a frame body, must also decode exactly as json.Unmarshal decodes it:
// accepted by both or neither, into equal Requests, and re-encoded to
// json.Marshal's bytes.
func FuzzServeDecode(f *testing.F) {
	var seed bytes.Buffer
	for _, req := range []Request{
		{Kind: "distance", D: 2, K: 4, Src: "0110", Dst: "1001"},
		{Kind: "route", D: 3, K: 3, Src: "012", Dst: "210", Mode: "directed", DeadlineMS: 5},
		{Kind: "batch", Batch: []Request{{Kind: "nexthop", D: 2, K: 2, Src: "01", Dst: "10"}}},
	} {
		seed.Reset()
		if err := WriteFrame(&seed, &req); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, body := range []string{
		`{"id":7,"kind":"route","d":2,"k":4,"src":"0110","dst":"1001","trace_id":"00000000000000ab"}`,
		`{"ID":1,"Kind":null,"batch":[{"id":2},null],"batch":[{"kind":"x"}],"x":[{"y":[1.5e3,true]}]}`,
		`{"fwd":{"origin":"o","key":"k","imag":"i","remaining":1,"final":true,"hops":0,"ttl":4},"src":"\u00e9\ud83d\ude00<>&"}`,
		"null", "{\"src\":\"\xff\u2028\"}",
	} {
		f.Add([]byte(body))
	}
	// Bodies that just miss the fast paths: a plain string broken
	// early, late or at the end of the frame by an escape, a control
	// byte or non-ASCII, and batch arrays the sizing bound miscounts
	// ('{' inside strings, nulls, duplicate and nested batches).
	plain := strings.Repeat("01", 130)
	for _, body := range []string{
		`{"src":"` + plain + `\u0030","dst":"` + plain[:5] + "\x01" + `"}`,
		`{"src":"` + plain + "\xc3\xa9" + `","dst":"0` + `\"","kind":"r` + "\x7f" + `"}`,
		`{"src":"` + plain, `{"src":"` + plain + `\`, `{"src":"` + plain + `"`,
		`{"kind":"batch","batch":[{"src":"{{{{"},null,{"dst":"}"}]}`,
		`{"batch":[null,null,{}],"batch":[{},{"batch":[{},{}]}],"batch":[{"fwd":{}},{}]}`,
		`{"batch":[` + strings.Repeat(`{},`, maxPresize+3) + `{}]}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestDecode(t, data)
		body, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooBig) {
				t.Fatalf("ReadFrame error outside the typed families: %v", err)
			}
			return
		}
		req, err := ParseRequest(body)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("ParseRequest error outside ErrBadQuery: %v", err)
			}
			return
		}
		kind, err := ParseKind(req.Kind)
		if err != nil {
			return
		}
		var qs []Query
		if kind == KindBatch {
			qs, err = parseBatch(req)
		} else {
			var q Query
			q, err = ParseQuery(req)
			qs = []Query{q}
		}
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("query validation error outside ErrBadQuery: %v", err)
			}
			return
		}
		// Valid queries must survive an answer at every ladder rung and
		// a wire round trip of the rebuilt request.
		eng := NewEngine(nil)
		for _, q := range qs {
			for _, level := range []Level{LevelFull, LevelDistance, LevelBounds} {
				a, _, err := eng.Answer(q, level)
				if err != nil {
					t.Fatalf("validated query %+v failed at level %v: %v", q, level, err)
				}
				resp := AnswerResponse(req.ID, q.Kind, a, false)
				var buf bytes.Buffer
				if err := WriteFrame(&buf, &resp); err != nil {
					t.Fatalf("response encode: %v", err)
				}
				if _, err := ReadFrame(&buf, 0); err != nil {
					t.Fatalf("response re-read: %v", err)
				}
			}
		}
	})
}

// FuzzResponseCodec checks the response decoder against json.Unmarshal
// on arbitrary bodies — accepted by both or neither, into equal
// Responses — and that an accepted body re-encodes to json.Marshal's
// bytes and round-trips through ParseResponse unchanged.
func FuzzResponseCodec(f *testing.F) {
	for _, r := range []Response{
		{ID: 1, Status: StatusOK, Distance: 3, Path: []string{"L0", "R*", "L1"}, Cached: true, TraceID: 0xab},
		{ID: 2, Status: StatusOK, Degrade: "bounds", Bounds: &Bounds{Lo: 1, Hi: 4}},
		{ID: 3, Status: StatusOK, NextHop: "R3"},
		{ID: 4, Status: StatusOK, Done: true},
		{ID: 5, Status: StatusShed, ShedReason: "queue_full"},
		{ID: 6, Status: StatusError, Error: "serve: bad <query> & \u2028"},
		{ID: 8, Status: StatusOK, Batch: []Response{{ID: 1, Status: StatusOK, Path: []string{"L1"}}, {ID: 2, Status: StatusOK, Distance: 2}}},
		{ID: 9, Status: StatusOK, Distance: 40, Anchor: &core.Anchor{Line: 8, S: 3, T: 200, Theta: 41}},
		{ID: 10, Status: StatusOK, Batch: []Response{{ID: 1, Status: StatusOK, Distance: 2, Anchor: &core.Anchor{Line: 1, L: 2}}, {ID: 2, Anchor: &core.Anchor{Line: 6}}}},
	} {
		f.Add(appendResponse(nil, &r))
	}
	f.Add([]byte(`{"PATH":["L0",null],"path":[],"bounds":null,"x":{"y":[]},"cached":null}`))
	f.Add([]byte("null"))
	// A redirect frame from an older server: redirect_addr is an
	// unknown key now, skipped by both decoders.
	f.Add([]byte(`{"id":7,"status":"redirect","redirect_addr":"127.0.0.1:7000"}`))
	// Bodies that just miss the hop fast paths and the path sizing
	// bound: near-hops, hops with whitespace around them, strings
	// holding ']' and ',', and paths longer than maxPresize.
	for _, body := range []string{
		`{"path":["L","LA","l0","L0 ","L0","R*"],"next_hop":"L0 "}`,
		`{"path":[ "L0" ,"R1"	,` + "\n" + `"Lz" ]}`,
		`{"path":["L0","a]b","c,d",",","]","R*"]}`,
		`{"path":["L0","R1"],"path":["]",null,"L2"]}`,
		`{"path":["L0"`, `{"path":["L0",`, `{"path":["L0`, `{"path":["L`,
		`{"path":["L\u0030","\u004c0","L` + "\xc3\xa9" + `"]}`,
		`{"path":[` + strings.Repeat(`"L0",`, maxPresize) + `"R*"]}`,
		`{"path":[` + strings.Repeat(`"L0","x]",`, maxPresize/2+1) + `"R*"]}`,
		`{"batch":[{"path":["L0"]},{"bounds":{"lo":1,"hi":2}},null],"batch":[{"batch":[{"path":["R1"]}]}]}`,
		// Anchors: null, negative, huge, missing and repeated keys, and
		// the batch presize's count of anchor objects thrown off by
		// strings and case-folded keys.
		`{"anchor":null}`, `{"anchor":{"line":-8,"s":-1,"t":-2,"theta":-3,"l":-4}}`,
		`{"anchor":{"line":9223372036854775807,"theta":9223372036854775808}}`, `{"anchor":{}}`,
		`{"anchor":{"line":8,"line":9,"s":1,"s":null}}`, `{"anchor":{"line":1},"anchor":{"l":3},"path":["L0"]}`,
		`{"error":"\"anchor\"","batch":[{"ANCHOR":{"line":6}},{"Anchor":{"line":6}},{"anchor":{"line":6}}]}`,
		`{"batch":[{"x":{"anchor":{}}},{"a\"anchor":{}},null,null,{"anchor":{"line":6}}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponseDecode(t, data)
	})
}
