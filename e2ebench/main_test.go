package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/word"
)

// TestMain lets the test binary stand in for the benchmark binary in
// the set-up children a run starts.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-only") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at a tiny op count through the command
// line entry point and returns the info lines and the parsed result.
func tinyRun(t *testing.T, workload string, seed, trace string) ([]string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0", "--trace", trace, "--spans", "", "--tiny"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace %s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	return lines[:len(lines)-1], res
}

// TestEveryMetricPrinted runs each workload tiny, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit, that nothing else is, and that every answer checked out.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": s.EndToEnd, "1": s.PerLayer} {
			_, res := tinyRun(t, w.Name, "7", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCheckRejectsCorruptAnswers hand-corrupts correct answers and
// expects the checks to fail them.
func TestCheckRejectsCorruptAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kn := core.NewKernels(core.KernelConfig{})
	src, dst := word.Random(2, 64, rng), word.Random(2, 64, rng)
	ref, err := core.UndirectedDistance(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	path, err := kn.RouteUndirected(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	hop, _, err := kn.NextHopUndirected(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	route := wireAnswer(1, serve.KindRoute, serve.Answer{Distance: ref, Path: path}, false)
	dist := wireAnswer(1, serve.KindDistance, serve.Answer{Distance: ref}, false)
	next := wireAnswer(1, serve.KindNextHop, serve.Answer{Hop: hop, HasHop: true}, false)

	good := map[serve.Kind]answer{
		serve.KindRoute:    answerOf(&route),
		serve.KindDistance: answerOf(&dist),
		serve.KindNextHop:  answerOf(&next),
	}
	for kind, a := range good {
		if err := checkQuery(undirected(kind, src, dst), a); err != nil {
			t.Fatalf("correct %v answer rejected: %v", kind, err)
		}
	}

	wrongDist := good[serve.KindDistance]
	wrongDist.dist++
	misses := good[serve.KindRoute]
	misses.path = append([]string(nil), misses.path...)
	last := misses.path[len(misses.path)-1]
	misses.path[len(misses.path)-1] = flipHop(last)
	short := good[serve.KindRoute]
	short.path = short.path[:len(short.path)-1]
	badHop := good[serve.KindNextHop]
	badHop.hop = flipHop(badHop.hop)
	done := good[serve.KindNextHop]
	done.hop, done.done = "", true

	for name, c := range map[string]struct {
		kind serve.Kind
		a    answer
	}{
		"wrong distance":        {serve.KindDistance, wrongDist},
		"route that misses dst": {serve.KindRoute, misses},
		"route one hop short":   {serve.KindRoute, short},
		"next hop that strays":  {serve.KindNextHop, badHop},
		"done before arriving":  {serve.KindNextHop, done},
	} {
		err := checkQuery(undirected(c.kind, src, dst), c.a)
		if !errors.Is(err, errWrongAnswer) {
			t.Errorf("%s: check returned %v, want a wrong-answer error", name, err)
		}
	}

	// Through the book: a corrupted answer counts every op that got it.
	book := newAnswerBook()
	e := book.lookup(undirected(serve.KindDistance, src, dst))
	book.record(e, wrongDist)
	book.record(e, wrongDist)
	book.verify()
	book.record(e, wrongDist)
	if book.failed != 3 || len(book.errs) != 1 {
		t.Errorf("book counted %d failed ops and %d errors, want 3 and 1", book.failed, len(book.errs))
	}
}

// flipHop returns a hop of the same kind with another concrete digit,
// or the other kind when the hop is a wildcard.
func flipHop(s string) string {
	switch {
	case s[1] == '0':
		return s[:1] + "1"
	case s[1] == '1':
		return s[:1] + "0"
	case s[0] == 'L':
		return "R0"
	default:
		return "L0"
	}
}

// TestSimCheckRejectsCorruptCells corrupts a cell's statistics and
// expects the conservation and digest checks to fail it.
func TestSimCheckRejectsCorruptCells(t *testing.T) {
	c := simCells(5, len(e18Rates))[3]
	r := runCell(c)
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	lost := runCell(c)
	lost.deflect[1].Stats.Delivered--
	if err := lost.check(); !errors.Is(err, errConservation) {
		t.Errorf("lost message: check returned %v", err)
	}
	chk := newSimChecker(1)
	chk.add(0, r)
	drift := runCell(c)
	drift.base.MeanLatency += 0.5
	chk.add(0, drift)
	if chk.failed != drift.delivered() || chk.firstErr == nil {
		t.Errorf("digest drift: %d ops failed, error %v", chk.failed, chk.firstErr)
	}
}

// TestSimReplayDivergenceFails corrupts the seed of the traced run's
// layer replay and expects the run to report its cells as failed.
func TestSimReplayDivergenceFails(t *testing.T) {
	defer func(salt int64) { arrivalSalt = salt }(arrivalSalt)
	arrivalSalt ^= 1
	info, res := tinyRun(t, "sim-e18", "7", "1")
	if res.Correct || res.Failed == 0 {
		t.Errorf("diverged replay: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(strings.Join(info, "\n"), "layer replay differed") {
		t.Errorf("diverged replay not reported: %q", info)
	}
}

var simDigest = regexp.MustCompile(`sim_digest=([0-9a-f]+)`)

// TestSameSeedSameRun: two tiny runs with one seed draw identical
// inputs and see the same cache hit ratio and the same simulation
// statistics; another seed draws other inputs.
func TestSameSeedSameRun(t *testing.T) {
	for _, w := range []*serveWorkload{&scalarZipf, &batchUniform} {
		passes := func(seed int64) []serve.Request {
			g := w.newGenerator(seed, true, newAnswerBook())
			var reqs []serve.Request
			for i := 0; i < 3; i++ {
				reqs = append(reqs, g.next().reqs...)
			}
			return reqs
		}
		if a, b := passes(11), passes(11); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed drew two input sequences", w.name)
		}
		if a, b := passes(11), passes(12); reflect.DeepEqual(a, b) {
			t.Errorf("%s: two seeds drew one input sequence", w.name)
		}
	}
	_, a := tinyRun(t, "scalar-zipf-k64", "11", "1")
	_, b := tinyRun(t, "scalar-zipf-k64", "11", "1")
	if ha, hb := a.Metrics["serve.cache_hit_ratio"], b.Metrics["serve.cache_hit_ratio"]; ha != hb || ha.Value <= 0 {
		t.Errorf("cache hit ratio %v then %v", ha.Value, hb.Value)
	}
	digest := func(seed string) string {
		info, _ := tinyRun(t, "sim-e18", seed, "0")
		m := simDigest.FindStringSubmatch(strings.Join(info, "\n"))
		if m == nil {
			t.Fatalf("no sim_digest in %q", info)
		}
		return m[1]
	}
	if a, b := digest("11"), digest("11"); a != b {
		t.Errorf("sim digest %s then %s for one seed", a, b)
	}
	if a, b := digest("11"), digest("12"); a == b {
		t.Errorf("sim digest %s for two seeds", a)
	}
}

// TestLayerMetricsMatchSpec keeps the traced run's metric list and
// BENCHMARK.json's per_layer list the same.
func TestLayerMetricsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	want := map[string]string{}
	for _, m := range s.PerLayer {
		want[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(want, layerMetricUnits) {
		t.Errorf("per_layer in BENCHMARK.json %v, traced run reports %v", want, layerMetricUnits)
	}
}
