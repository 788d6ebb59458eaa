package check

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/deflect"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/word"
)

// InvariantsOptions parameterizes the conservation-invariant oracle.
type InvariantsOptions struct {
	// Seed drives workloads and fault plans.
	Seed int64
	// Messages per engine scenario. 0 means min(4·N, 1024).
	Messages int
	// Rounds bounds the deflection run. 0 means 64·k.
	Rounds int
	// MaxFindings caps the findings per report. 0 means 32.
	MaxFindings int
	// Workers sets the scan concurrency only. The nine scenario units
	// (six stepped, three deflection policies) are independent — each
	// derives its RNG stream from its own scenario name — and merge in
	// canonical order, so the report is the same for every worker
	// count.
	Workers int
}

// Invariants re-derives, from obs registry snapshots taken after
// seeded runs, the conservation laws every engine documents:
//
//	stepped store-and-forward engine:
//	    sent = delivered + dropped,
//	    dropped = Σ dn_drops_total{reason=…},
//	    hop-histogram count = delivered,
//	    hop-histogram sum = Stats().TotalHops;
//
//	bufferless deflection engine:
//	    injected = delivered + guard trips + inflight,
//	    with Engine.Stats and the registry in exact agreement.
//
// The scenarios deliberately provoke every drop path the accounting
// must balance: healthy traffic, static faults, mid-run faults with
// and without adaptive rerouting, source- and self-routed, and
// sustained deflection load past the age guard.
func Invariants(d, k int, opt InvariantsOptions) (Report, error) {
	rep := Report{Mode: "invariants", D: d, K: k}
	n, err := word.Count(d, k)
	if err != nil {
		return rep, fmt.Errorf("check: DG(%d,%d): %w", d, k, err)
	}
	if opt.Messages <= 0 {
		opt.Messages = 4 * n
		if opt.Messages > 1024 {
			opt.Messages = 1024
		}
	}
	if opt.Rounds <= 0 {
		opt.Rounds = 64 * k
	}
	units := invariantUnits()
	results := make([]shardResult, len(units))
	runShards(opt.Workers, len(units), func(i int) {
		uf := newFindings(opt.MaxFindings)
		iv := &invariantScan{d: d, k: k, n: n, opt: opt, f: uf}
		err := units[i](iv)
		results[i] = shardResult{checked: iv.checked, findings: uf.result(), full: uf.full(), err: err}
	})
	err = mergeShards(&rep, results, opt.MaxFindings)
	return rep, err
}

// invariantUnits enumerates the independent scenario units in
// canonical order. Each unit owns its RNG stream, engine and obs
// registry, so units may run concurrently on distinct invariantScans
// and merge back in this order.
func invariantUnits() []func(iv *invariantScan) error {
	var units []func(iv *invariantScan) error
	for _, s := range []struct {
		name              string
		uni, adaptive     bool
		faults, midFaults bool
		selfRouted        bool
	}{
		{name: "healthy", faults: false},
		{name: "uni-faults", uni: true, faults: true},
		{name: "static-faults", faults: true},
		{name: "midrun-faults", faults: true, midFaults: true},
		{name: "adaptive-midrun", adaptive: true, faults: true, midFaults: true},
		{name: "selfrouted-adaptive-midrun", adaptive: true, faults: true, midFaults: true, selfRouted: true},
	} {
		s := s
		units = append(units, func(iv *invariantScan) error {
			return iv.stepped(s.name, s.uni, s.adaptive, s.faults, s.midFaults, s.selfRouted)
		})
	}
	for _, pol := range []deflect.Policy{deflect.PolicyRandom{}, deflect.PolicyMinIncrease{}, deflect.PolicyLayerAware{}} {
		pol := pol
		units = append(units, func(iv *invariantScan) error {
			return iv.deflect(pol)
		})
	}
	return units
}

type invariantScan struct {
	d, k, n int
	opt     InvariantsOptions
	f       *findings
	checked int
}

// assert records one invariant evaluation, as a finding when violated.
func (iv *invariantScan) assert(ok bool, format string, args ...any) {
	iv.checked++
	if !ok {
		iv.f.addf("conservation", format, args...)
	}
}

// workload derives the scenario's RNG stream and message plan. The
// salt is a hash of the full scenario name — not its length, which
// collides (e.g. "static-faults" vs "midrun-faults") and would hand
// distinct scenarios identical streams.
func (iv *invariantScan) workload(scenario string) (*rand.Rand, []word.Word) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(scenario))
	rng := rand.New(rand.NewSource(iv.opt.Seed + int64(h.Sum64())))
	plan := make([]word.Word, 2*iv.opt.Messages)
	for i := range plan {
		plan[i] = word.Random(iv.d, iv.k, rng)
	}
	return rng, plan
}

// stepped runs one scenario through network.Network — source-routed
// (Send) or self-routed (SendDestinationRouted) — and balances the
// dn_messages_* / dn_drops_total / dn_hops books.
func (iv *invariantScan) stepped(name string, uni, adaptive, faults, midFaults, selfRouted bool) error {
	reg := obs.NewRegistry()
	nw, err := network.New(network.Config{
		D: iv.d, K: iv.k,
		Unidirectional: uni,
		Adaptive:       adaptive,
		Seed:           iv.opt.Seed,
		Obs:            reg,
	})
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	send := nw.Send
	if selfRouted {
		send = nw.SendDestinationRouted
	}
	rng, plan := iv.workload("stepped/" + name)
	if faults && !midFaults {
		if err := iv.failSome(rng, nw.FailSite); err != nil {
			return err
		}
	}
	for i := 0; i < iv.opt.Messages; i++ {
		if midFaults && i == iv.opt.Messages/2 {
			if err := iv.failSome(rng, nw.FailSite); err != nil {
				return err
			}
		}
		if _, err := send(plan[2*i], plan[2*i+1], strconv.Itoa(i)); err != nil {
			return fmt.Errorf("check: stepped %s send: %w", name, err)
		}
	}
	snap := reg.Snapshot()
	iv.balanceBooks("stepped/"+name, snap, int64(iv.opt.Messages))
	st := nw.Stats()
	iv.assert(int64(st.Delivered) == snap.Counter("dn_messages_delivered_total") &&
		int64(st.Dropped) == snap.Counter("dn_messages_dropped_total"),
		"DN(%d,%d) stepped/%s: Stats{delivered %d, dropped %d} disagrees with registry {%d, %d}",
		iv.d, iv.k, name, st.Delivered, st.Dropped,
		snap.Counter("dn_messages_delivered_total"), snap.Counter("dn_messages_dropped_total"))
	hopSum := snap.Histograms["dn_hops"].Sum
	iv.assert(hopSum == float64(st.TotalHops),
		"DN(%d,%d) stepped/%s: dn_hops sums to %v, Stats().TotalHops = %d", iv.d, iv.k, name, hopSum, st.TotalHops)
	return nil
}

// balanceBooks asserts the store-and-forward conservation laws from
// one snapshot.
func (iv *invariantScan) balanceBooks(scen string, snap obs.Snapshot, wantSent int64) {
	sent := snap.Counter("dn_messages_sent_total")
	del := snap.Counter("dn_messages_delivered_total")
	drop := snap.Counter("dn_messages_dropped_total")
	byReason := snap.CounterSum("dn_drops_total")
	iv.assert(sent == wantSent,
		"DN(%d,%d) %s: dn_messages_sent_total = %d, but %d messages were injected", iv.d, iv.k, scen, sent, wantSent)
	iv.assert(sent == del+drop,
		"DN(%d,%d) %s: sent %d ≠ delivered %d + dropped %d", iv.d, iv.k, scen, sent, del, drop)
	iv.assert(drop == byReason,
		"DN(%d,%d) %s: dropped %d ≠ Σ dn_drops_total{reason} = %d", iv.d, iv.k, scen, drop, byReason)
	hops := snap.Histograms["dn_hops"].Count
	iv.assert(hops == del,
		"DN(%d,%d) %s: dn_hops has %d observations, delivered %d", iv.d, iv.k, scen, hops, del)
}

// deflect drives the bufferless engine under open-loop load — past the
// age guard so guard trips are exercised, stopping mid-flight so the
// inflight term is nonzero — and balances injected against its three
// sinks, in Stats and in the registry.
func (iv *invariantScan) deflect(pol deflect.Policy) error {
	name := fmt.Sprintf("deflect/%T", pol)
	reg := obs.NewRegistry()
	e, err := deflect.New(deflect.Config{
		D: iv.d, K: iv.k,
		Policy: pol,
		Seed:   iv.opt.Seed,
		MaxAge: 4 * iv.k, // low guard: make guard trips reachable within the round budget
		Obs:    reg,
	})
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	rng, plan := iv.workload(name)
	// Small destination pool: distance layers are memoized per
	// destination, so a pool keeps the run cheap on big graphs while
	// still contending every link class.
	dests := plan[:min(len(plan), 8)]
	next := 0
	for r := 0; r < iv.opt.Rounds; r++ {
		// Open-loop injection: a few messages per round from random
		// sources, refusals allowed (capacity is finite by design).
		for i := 0; i < 4; i++ {
			src := word.Random(iv.d, iv.k, rng)
			if _, err := e.Inject(src, dests[next%len(dests)]); err != nil {
				return fmt.Errorf("check: %s inject: %w", name, err)
			}
			next++
		}
		if err := e.Step(); err != nil {
			return fmt.Errorf("check: %s step: %w", name, err)
		}
	}
	st := e.Stats()
	iv.assert(st.Injected == st.Delivered+st.GuardDropped+st.Inflight,
		"DN(%d,%d) %s: injected %d ≠ delivered %d + guard %d + inflight %d",
		iv.d, iv.k, name, st.Injected, st.Delivered, st.GuardDropped, st.Inflight)
	iv.assert(st.Inflight == e.Inflight(),
		"DN(%d,%d) %s: Stats.Inflight %d ≠ Engine.Inflight %d", iv.d, iv.k, name, st.Inflight, e.Inflight())
	snap := reg.Snapshot()
	for _, c := range []struct {
		metric string
		want   int
	}{
		{"dn_deflect_injected_total", st.Injected},
		{"dn_deflect_refused_total", st.Refused},
		{"dn_deflect_delivered_total", st.Delivered},
		{"dn_deflect_guard_trips_total", st.GuardDropped},
	} {
		iv.assert(snap.Counter(c.metric) == int64(c.want),
			"DN(%d,%d) %s: %s = %d, Stats says %d", iv.d, iv.k, name, c.metric, snap.Counter(c.metric), c.want)
	}
	iv.assert(snap.Gauge("dn_deflect_inflight") == float64(st.Inflight),
		"DN(%d,%d) %s: inflight gauge %v, Stats says %d", iv.d, iv.k, name, snap.Gauge("dn_deflect_inflight"), st.Inflight)
	iv.assert(snap.Histograms["dn_deflect_latency_rounds"].Count == int64(st.Delivered),
		"DN(%d,%d) %s: latency histogram has %d observations, delivered %d",
		iv.d, iv.k, name, snap.Histograms["dn_deflect_latency_rounds"].Count, st.Delivered)
	return nil
}

// failSome marks a seeded minority of sites failed (at least one,
// never the majority on graphs with more than two vertices).
func (iv *invariantScan) failSome(rng *rand.Rand, fail func(word.Word) error) error {
	want := iv.n / 10
	if want < 1 {
		want = 1
	}
	if want > iv.n/2 {
		want = iv.n / 2
	}
	if want < 1 {
		want = 1 // two-vertex graphs: fail one site, the other keeps sending
	}
	seen := map[string]bool{}
	for len(seen) < want {
		w := word.Random(iv.d, iv.k, rng)
		if seen[w.String()] {
			continue
		}
		seen[w.String()] = true
		if err := fail(w); err != nil {
			return fmt.Errorf("check: %w", err)
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
