package debruijn_test

import (
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/deflect"
	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/word"
)

// TestMetricDocsMatchRegistry pins README § Observability to the code
// in both directions: the label-stripped names in the section's metric
// table must equal the union of the series that every simulator
// subsystem produces — an instrumented Network (faults, Adaptive and
// Trace on), a deflection engine, a dht.Ring and a fault sweep that
// finds a disconnecting set and disconnected pairs.
func TestMetricDocsMatchRegistry(t *testing.T) {
	const d, k = 2, 5
	rng := rand.New(rand.NewSource(5))

	netReg := obs.NewRegistry()
	n, err := network.New(network.Config{D: d, K: k, Adaptive: true, Trace: true, Seed: 5, Obs: netReg})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailSite(word.MustParse(d, "01101")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := n.Send(word.Random(d, k, rng), word.Random(d, k, rng), ""); err != nil {
			t.Fatal(err)
		}
	}
	n.Stats()

	deflectReg := obs.NewRegistry()
	e, err := deflect.New(deflect.Config{D: d, K: k, Seed: 5, Obs: deflectReg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := e.Inject(word.Random(d, k, rng), word.Random(d, k, rng)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*k; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}

	dhtReg := obs.NewRegistry()
	ids := make([]word.Word, 8)
	for i := range ids {
		ids[i] = word.Random(d, k, rng)
	}
	ring, err := dht.NewRing(d, k, ids)
	if err != nil {
		t.Fatal(err)
	}
	ring.SetObserver(dhtReg)
	if _, err := ring.Lookup(ring.Nodes()[0], word.Random(d, k, rng)); err != nil {
		t.Fatal(err)
	}

	// DN(2,4) survives one failure but not two (the two neighbours of
	// 0000 isolate it), so the sweep records a disconnecting set and
	// the stretch sample around it records disconnected pairs.
	faultReg := obs.NewRegistry()
	fault.SetObserver(faultReg)
	defer fault.SetObserver(nil)
	g, err := graph.DeBruijn(graph.Undirected, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fault.ExhaustiveTolerance(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tolerated {
		t.Fatal("DN(2,4) tolerated every 2-failure set; the sweep needs a disconnecting one")
	}
	res, err := fault.RerouteStretch(g, rep.CounterExample, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 || res.Disconnected == 0 {
		t.Fatalf("stretch sample needs both outcomes: %+v", res)
	}

	produced := map[string]bool{}
	for _, reg := range []*obs.Registry{netReg, deflectReg, dhtReg, faultReg} {
		snap := reg.Snapshot()
		for name := range snap.Counters {
			produced[seriesBase(name)] = true
		}
		for name := range snap.Gauges {
			produced[seriesBase(name)] = true
		}
		for name := range snap.Histograms {
			produced[seriesBase(name)] = true
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README.md has no § Observability")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	name := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		series := strings.Split(line, "|")[1]
		for _, tok := range name.FindAllStringSubmatch(series, -1) {
			for _, n := range expandSeries(tok[1]) {
				documented[n] = true
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("README § Observability lists no series")
	}

	for n := range produced {
		if !documented[n] {
			t.Errorf("series %s is produced but not in README § Observability's table", n)
		}
	}
	for n := range documented {
		if !produced[n] {
			t.Errorf("README § Observability documents %s, but no instrumented subsystem produces it", n)
		}
	}
}

// seriesBase strips the label set from a registered series name.
func seriesBase(name string) string {
	base, _, _ := strings.Cut(name, "{")
	return base
}

// expandSeries expands a documented series pattern: a brace group of
// alternatives (dn_{a,b}_total) yields one name per alternative, and
// a label set ({reason="…"}) is stripped.
func expandSeries(pattern string) []string {
	i := strings.IndexByte(pattern, '{')
	if i < 0 {
		return []string{pattern}
	}
	j := i + strings.IndexByte(pattern[i:], '}')
	if j < i {
		return []string{pattern}
	}
	inner, rest := pattern[i+1:j], pattern[j+1:]
	if strings.Contains(inner, "=") {
		return expandSeries(pattern[:i] + rest)
	}
	var out []string
	for _, alt := range strings.Split(inner, ",") {
		out = append(out, expandSeries(pattern[:i]+alt+rest)...)
	}
	return out
}
