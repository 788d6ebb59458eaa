package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedLoadConfig is the seeded workload of the replay-determinism
// test: closed loop, no cache (hits depend on interleaving), ample
// queue (no sheds), long deadline (no timing-dependent outcomes).
func tracedLoadConfig(seed int64) LoadConfig {
	return LoadConfig{
		D: 2, K: 10,
		Clients:           4,
		RequestsPerClient: 256,
		DeadlineMS:        60_000,
		Seed:              seed,
		StampTrace:        true,
	}
}

// runTracedLoad runs one seeded load against a fresh tracing server
// and returns the canonical forms of its sampled traces, sorted.
func runTracedLoad(t *testing.T, seed int64) []string {
	t.Helper()
	s := newTestServer(t, Config{
		Shards:          4,
		QueueDepth:      1024,
		CacheSize:       0,
		TraceSample:     64,
		TraceSeed:       7,
		TraceBufferSize: 4096,
		Registry:        obs.NewRegistry(),
	})
	cfg := tracedLoadConfig(seed)
	res, err := RunLoad(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.Degraded != 0 || res.Errors != 0 {
		t.Fatalf("replay run not clean: %+v", res)
	}
	// The sampled set is computable client-side: the same pure
	// (id, seed) decision the server makes.
	smp := obs.NewSampler(64, 7)
	want := 0
	for i := 0; i < cfg.Clients; i++ {
		for n := 0; n < cfg.RequestsPerClient; n++ {
			if smp.Sample(stampTraceID(seed, i, n)) {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatal("seeded workload samples nothing; pick another seed")
	}
	waitFor(t, func() bool { return int(s.Traces().Total()) == want })
	var canon []string
	for _, tr := range s.Traces().Recent() {
		canon = append(canon, tr.Canonical())
	}
	sort.Strings(canon)
	return canon
}

// TestTraceReplayDeterminism replays one seeded load run twice and
// requires byte-identical sampled trace sets — the acceptance-criteria
// contract of the deterministic (trace id, seed) head sampler.
func TestTraceReplayDeterminism(t *testing.T) {
	a := runTracedLoad(t, 1234)
	b := runTracedLoad(t, 1234)
	if len(a) != len(b) {
		t.Fatalf("sampled %d vs %d traces across replays", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace %d diverged across replays:\n run1 %q\n run2 %q", i, a[i], b[i])
		}
	}
	// A different workload seed must not reproduce the same set (the
	// ids differ), guarding against a Canonical that collapsed to "".
	c := runTracedLoad(t, 99)
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("different seeds produced identical sampled sets")
	}
}

// TestTrickleOverloadFreezesFlight stalls the only shard, fills its
// queue, and then sends one request every two monitor windows. Every
// request is shed on the full queue, yet no window comes near the
// rate triggers' minimum sample size: the recorder must still freeze,
// on shed_spike.
func TestTrickleOverloadFreezesFlight(t *testing.T) {
	g := newStallGate()
	const window = 5 * time.Millisecond
	s := newTestServer(t, Config{
		Shards:          1,
		QueueDepth:      1,
		FlightSize:      64,
		MonitorInterval: window,
		Registry:        obs.NewRegistry(),
	})
	s.workerHook = g.hook
	defer g.open()

	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sendBlocker(t, c, g)
	src := mustWord(t, 2, "0110")
	filler := DistanceRequest(src, src, Undirected)
	filler.DeadlineMS = blockerDeadlineMS + 1
	fillerDone := make(chan struct{})
	go func() {
		c.Do(context.Background(), filler)
		close(fillerDone)
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })

	for i := 0; i < 20 && !s.Flight().Frozen(); i++ {
		resp, err := c.Do(context.Background(), DistanceRequest(src, src, Undirected))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusShed || resp.ShedReason != "queue_full" {
			t.Fatalf("trickle response %d = %+v, want shed queue_full", i, resp)
		}
		time.Sleep(2 * window)
	}
	waitFor(t, func() bool { return s.Flight().Frozen() })

	snap := s.Flight().Snapshot()
	if snap.Trigger == nil || snap.Trigger.Name != TriggerShedSpike || !strings.Contains(snap.Trigger.Detail, "full queue") {
		t.Fatalf("trigger = %+v, want %s on a full queue", snap.Trigger, TriggerShedSpike)
	}
	for _, ev := range snap.Events {
		if ev.Kind == obs.FlightMetric && ev.Name == "window_sent" && ev.Value >= monitorMinWindow {
			t.Fatalf("a window saw %v requests; the trickle should stay below %d", ev.Value, monitorMinWindow)
		}
	}
	g.open()
	<-fillerDone
}

// TestShedStormFreezesFlight induces a queue_full storm against a
// depth-one queue with a parked worker and checks the flight recorder
// freezes exactly once, with the shed_spike trigger and the shed
// traces preserved, and that /debug/flight serves the postmortem.
func TestShedStormFreezesFlight(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{
		Shards:          1,
		QueueDepth:      1,
		TraceSample:     1,
		FlightSize:      128,
		MonitorInterval: 5 * time.Millisecond,
		Registry:        obs.NewRegistry(),
	})
	s.workerHook = g.hook
	defer g.open()

	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocked := sendBlocker(t, c, g)

	// Fill the single queue slot, then everything after is shed.
	src := mustWord(t, 2, "0110")
	filler := DistanceRequest(src, src, Undirected)
	filler.DeadlineMS = blockerDeadlineMS + 1
	fillerDone := make(chan struct{})
	go func() {
		c.Do(context.Background(), filler)
		close(fillerDone)
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })

	ctx := context.Background()
	for i := 0; i < 64; i++ {
		resp, err := c.Do(ctx, DistanceRequest(src, src, Undirected))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusShed || resp.ShedReason != "queue_full" {
			t.Fatalf("storm response %d = %+v, want shed queue_full", i, resp)
		}
		if resp.TraceID == 0 {
			t.Fatalf("storm response %d carries no trace id", i)
		}
	}
	waitFor(t, func() bool { return s.Flight().Frozen() })
	if missed := s.Flight().MissedTriggers(); missed != 0 {
		t.Fatalf("recorder froze %d extra times", missed)
	}

	snap := s.Flight().Snapshot()
	if snap.Trigger == nil || snap.Trigger.Name != TriggerShedSpike {
		t.Fatalf("trigger = %+v, want %s", snap.Trigger, TriggerShedSpike)
	}
	if snap.Trigger.Value <= 0 {
		t.Fatalf("trigger shed fraction = %v, want > 0", snap.Trigger.Value)
	}
	var shedTraces, metrics int
	for _, ev := range snap.Events {
		switch ev.Kind {
		case obs.FlightTrace:
			if ev.Name == "shed:queue_full" {
				shedTraces++
			}
		case obs.FlightMetric:
			metrics++
		}
	}
	if shedTraces == 0 || metrics == 0 {
		t.Fatalf("postmortem lacks context: %d shed traces, %d metric windows", shedTraces, metrics)
	}

	// The postmortem must survive further traffic: a second storm adds
	// nothing and fires nothing.
	before := len(snap.Events)
	for i := 0; i < 32; i++ {
		c.Do(ctx, DistanceRequest(src, src, Undirected))
	}
	if got := len(s.Flight().Snapshot().Events); got != before {
		t.Fatalf("frozen snapshot grew from %d to %d events", before, got)
	}

	// /debug/flight serves the frozen snapshot as well-formed JSON.
	ds, err := obs.ServeDebug("127.0.0.1:0", obs.DebugOptions{
		Registry: s.cfg.Registry, Traces: s.Traces(), Flight: s.Flight(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire obs.FlightSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("/debug/flight JSON: %v", err)
	}
	if !wire.Frozen || wire.Trigger == nil || wire.Trigger.Name != TriggerShedSpike {
		t.Fatalf("/debug/flight = frozen=%v trigger=%+v", wire.Frozen, wire.Trigger)
	}

	g.open()
	<-fillerDone
	if resp, ok := <-blocked; !ok || resp.Status != StatusOK {
		t.Fatalf("blocker = %+v (ok=%v)", resp, ok)
	}
}

// TestBatchTracePropagation sends a batch frame under 1-in-1 sampling
// and checks the single wire trace id fans out into per-sub-query
// spans while the hop events keep the Delivery.Trace vocabulary.
func TestBatchTracePropagation(t *testing.T) {
	s := newTestServer(t, Config{
		Shards:      1,
		CacheSize:   64,
		TraceSample: 1,
		Registry:    obs.NewRegistry(),
	})
	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := mustWord(t, 2, "011010")
	dst := mustWord(t, 2, "110100")
	batch := BatchRequest(
		DistanceRequest(src, dst, Undirected),
		RouteRequest(src, dst, Undirected),
		NextHopRequest(src, dst, Undirected),
	)
	batch.TraceID = 0xabc
	resp, err := c.Do(context.Background(), batch)
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("batch: %+v, %v", resp, err)
	}
	if resp.TraceID != 0xabc {
		t.Fatalf("response trace id = %v, want the request's 0xabc", resp.TraceID)
	}

	waitFor(t, func() bool { return s.Traces().Total() >= 1 })
	var tr *obs.ReqTrace
	for _, cand := range s.Traces().Recent() {
		if cand.ID == 0xabc {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatalf("trace 0xabc not in buffer: %+v", s.Traces().Recent())
	}
	if tr.Kind != "batch" || tr.Batch != 3 || tr.Outcome != "answered" {
		t.Fatalf("trace = kind %q batch %d outcome %q", tr.Kind, tr.Batch, tr.Outcome)
	}
	subs := map[int][]string{}
	for _, sp := range tr.Spans {
		subs[sp.Sub] = append(subs[sp.Sub], sp.Name)
	}
	// Frame-level spans carry sub 0; each sub-query tags its own.
	for _, name := range []string{obs.SpanAdmission, obs.SpanQueue, obs.SpanWrite} {
		found := false
		for _, n := range subs[0] {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("frame-level span %q missing: %v", name, subs[0])
		}
	}
	for i := 1; i <= 3; i++ {
		if len(subs[i]) == 0 {
			t.Errorf("sub-query %d recorded no spans: %v", i, tr.Spans)
		}
	}
	// The route sub-query contributed layer-annotated hop events in the
	// shared vocabulary; Sites() recovers the walk like Delivery.Trace.
	wantDist := oracleDistance(t, Undirected, src, dst)
	sites := tr.Hops.Sites()
	if len(sites) != wantDist+1 || sites[0] != src.String() {
		t.Fatalf("hop sites = %v, want walk of %d sites from %s", sites, wantDist+1, src)
	}
	if tr.Hops[0].Layer != wantDist {
		t.Fatalf("inject layer = %d, want distance %d", tr.Hops[0].Layer, wantDist)
	}

	// The sampled request also pinned a latency exemplar.
	ex := s.cfg.Registry.Snapshot().Histogram(metricLatencyNs).Exemplars
	found := false
	for _, id := range ex {
		if id != 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no latency exemplar recorded: %v", ex)
	}
}

// TestDegradedTraceOutcome drives the degrade ladder under 1-in-1
// sampling and checks degraded answers record their rung.
func TestDegradedTraceOutcome(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{
		Shards:      1,
		QueueDepth:  10,
		TraceSample: 1,
		Registry:    obs.NewRegistry(),
	})
	s.workerHook = g.hook
	defer g.open()

	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blocked := sendBlocker(t, c, g)

	src := mustWord(t, 2, "011010")
	dst := mustWord(t, 2, "110100")
	done := make(chan struct{}, 9)
	for i := 0; i < 9; i++ {
		go func() {
			req := RouteRequest(src, dst, Undirected)
			req.DeadlineMS = blockerDeadlineMS + 1
			c.Do(context.Background(), req)
			done <- struct{}{}
		}()
		waitFor(t, func() bool { return len(s.queue) == i+1 })
	}
	g.open()
	for i := 0; i < 9; i++ {
		<-done
	}
	if resp, ok := <-blocked; !ok || resp.Degrade != "bounds" {
		t.Fatalf("blocker = %+v (ok=%v), want bounds", resp, ok)
	}

	// blocker at fill 0.9 → degraded:bounds; next → degraded:distance;
	// the rest, below fill 0.75 and with no failed links → answered.
	waitFor(t, func() bool { return s.Traces().Total() >= 10 })
	outcomes := map[string]int{}
	for _, tr := range s.Traces().Recent() {
		outcomes[tr.Outcome]++
	}
	if outcomes["degraded:bounds"] != 1 || outcomes["degraded:distance"] != 1 || outcomes["answered"] != 8 {
		t.Fatalf("trace outcomes = %v, want 1 bounds / 1 distance / 8 answered", outcomes)
	}
	// The bounds trace recorded the O(1) bounds kernel, not a routing one.
	for _, tr := range s.Traces().Recent() {
		if tr.Outcome != "degraded:bounds" {
			continue
		}
		found := false
		for _, sp := range tr.Spans {
			if sp.Name == obs.SpanKernel+"/bounds" {
				found = true
			}
		}
		if !found {
			t.Fatalf("bounds trace lacks kernel/bounds span: %+v", tr.Spans)
		}
	}
}

// TestDisconnectTracePublished checks a request abandoned by a
// mid-stream disconnect still publishes its sampled trace with the
// canceled shed reason — the write span is the only casualty.
func TestDisconnectTracePublished(t *testing.T) {
	g := newStallGate()
	s := newTestServer(t, Config{
		Shards:      1,
		QueueDepth:  8,
		TraceSample: 1,
		Registry:    obs.NewRegistry(),
	})
	s.workerHook = func(tk *task) {
		if tk.req.DeadlineMS == blockerDeadlineMS {
			g.hook(tk)
			return
		}
		<-tk.ctx.Done()
	}
	defer g.open()

	a, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = sendBlocker(t, a, g)

	b, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	src := mustWord(t, 2, "0110")
	req := DistanceRequest(src, src, Undirected)
	req.DeadlineMS = blockerDeadlineMS + 1
	req.TraceID = 0xd15c
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	go b.Do(ctx, req)
	waitFor(t, func() bool { return len(s.queue) == 1 })
	b.Close()
	g.open()

	waitFor(t, func() bool {
		for _, tr := range s.Traces().Recent() {
			if tr.ID == 0xd15c {
				return true
			}
		}
		return false
	})
	for _, tr := range s.Traces().Recent() {
		if tr.ID != 0xd15c {
			continue
		}
		if tr.Outcome != "shed:canceled" {
			t.Fatalf("disconnect trace outcome = %q, want shed:canceled", tr.Outcome)
		}
		for _, sp := range tr.Spans {
			if sp.Name == obs.SpanWrite {
				t.Fatalf("disconnect trace has a write span: %+v", tr.Spans)
			}
		}
	}
}

// TestTraceIDEchoWithoutSampling pins the wire contract: a supplied
// trace_id is echoed even with tracing disabled, and nothing is
// recorded.
func TestTraceIDEchoWithoutSampling(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Registry: obs.NewRegistry()})
	c, err := s.SelfClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := mustWord(t, 2, "0110")
	req := DistanceRequest(src, src, Undirected)
	req.TraceID = 0xcafe
	resp, err := c.Do(context.Background(), req)
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	if resp.TraceID != 0xcafe {
		t.Fatalf("echo = %v, want cafe", resp.TraceID)
	}
	if s.Traces() != nil {
		t.Fatal("trace buffer exists with sampling disabled")
	}
	// Without a supplied id, disabled tracing does not invent one.
	resp, err = c.Do(context.Background(), DistanceRequest(src, src, Undirected))
	if err != nil || resp.TraceID != 0 {
		t.Fatalf("unstamped resp = %+v, %v, want no trace id", resp, err)
	}
}

// TestAnswerTracedMatchesAnswer pins AnswerTraced(q, level, nil) and
// Answer to the same results, and checks the traced variant records
// cache hit/miss details and hop events.
func TestAnswerTracedMatchesAnswer(t *testing.T) {
	cache := NewCache(64, nil)
	e1 := NewEngine(cache)
	e2 := NewEngine(nil)
	src := mustWord(t, 2, "011010")
	dst := mustWord(t, 2, "110100")
	q := Query{Kind: KindRoute, Mode: Undirected, Src: src, Dst: dst}

	plain, hit1, err := e2.Answer(q, LevelFull)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewReqTrace(1, "route", "undirected", time.Now())
	miss, hit2, err := e1.AnswerTraced(q, LevelFull, tr)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || hit2 {
		t.Fatal("unexpected cache hit")
	}
	if miss.Distance != plain.Distance || len(miss.Path) != len(plain.Path) {
		t.Fatalf("traced answer %+v != plain %+v", miss, plain)
	}
	wantSpans := []string{obs.SpanCache, obs.SpanKernel + "/route"}
	if len(tr.Spans) != len(wantSpans) {
		t.Fatalf("spans = %+v, want %v", tr.Spans, wantSpans)
	}
	for i, name := range wantSpans {
		if tr.Spans[i].Name != name {
			t.Errorf("span %d = %q, want %q", i, tr.Spans[i].Name, name)
		}
	}
	if tr.Spans[0].Detail != "miss" {
		t.Errorf("cache span detail = %q, want miss", tr.Spans[0].Detail)
	}
	if tr.Spans[1].Layer != plain.Distance {
		t.Errorf("kernel span layer = %d, want %d", tr.Spans[1].Layer, plain.Distance)
	}
	if tr.Hops.Hops() != plain.Distance {
		t.Errorf("hop events = %d forwards, want %d", tr.Hops.Hops(), plain.Distance)
	}

	// Second call: a hit, still carrying the stored path's hop events.
	tr2 := obs.NewReqTrace(2, "route", "undirected", time.Now())
	cached, hit, err := e1.AnswerTraced(q, LevelFull, tr2)
	if err != nil || !hit {
		t.Fatalf("repeat = %+v, hit=%v, %v", cached, hit, err)
	}
	if tr2.Spans[0].Detail != "hit" {
		t.Errorf("hit cache span detail = %q", tr2.Spans[0].Detail)
	}
	if tr2.Hops.Hops() != plain.Distance {
		t.Errorf("hit hop events = %d forwards, want %d", tr2.Hops.Hops(), plain.Distance)
	}
}
