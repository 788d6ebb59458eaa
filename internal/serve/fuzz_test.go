package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"
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
				resp := answerResponse(req.ID, q.Kind, a, false)
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
		{ID: 7, Status: StatusRedirect, RedirectAddr: "127.0.0.1:7000"},
		{ID: 8, Status: StatusOK, Batch: []Response{{ID: 1, Status: StatusOK, Path: []string{"L1"}}, {ID: 2, Status: StatusOK, Distance: 2}}},
	} {
		f.Add(appendResponse(nil, &r))
	}
	f.Add([]byte(`{"PATH":["L0",null],"path":[],"bounds":null,"x":{"y":[]},"cached":null}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponseDecode(t, data)
	})
}
