// Package check is the differential-verification harness of the
// reproduction: every independent implementation of the paper's route
// and distance computations is cross-checked against an oracle, and
// every engine is cross-checked against its own accounting.
//
// The paper proves that three different algorithms (1, 2 and 4)
// compute the *same* optimal routes — Theorem 2's distance is the
// invariant all of them must satisfy — which makes the codebase ideal
// for differential testing: BFS on the explicit graph (internal/graph)
// is the ground truth, and any disagreement between it and a closed
// form, or between two route constructions run on identical inputs, is
// a bug by definition. The graph-level oracle families include:
//
//   - Routes: for every ordered pair of DG(d,k) (seeded sample above
//     Options.SampleAbove vertices), Algorithms 1 and 2 must agree
//     with BFS distance, the linear-tree Algorithm 4, the reusable
//     core.Router and core.Kernels must return Algorithm 2's path hop
//     for hop, and every emitted Path is replayed hop by hop
//     through the explicit graph — under every wildcard chooser the
//     engines use — to prove it walks X→Y in exactly D(X,Y) real link
//     crossings (no phantom self-moves, no non-edges).
//
//   - Invariants: the conservation laws every engine promises are
//     re-derived from obs registry snapshots after seeded runs:
//     sent = delivered + Σ drops-by-reason for the store-and-forward
//     engine, and injected = delivered + guard trips + inflight for
//     the bufferless deflection engine.
//
// cmd/dbcheck exposes the harness as a CLI with machine-readable JSON
// verdicts; CI runs the full sweep on every graph with at most 4096
// vertices as the standing gate for routing-stack changes.
package check

import "fmt"

// Finding is one divergence: a statement the harness proved false,
// with enough context to reproduce it.
type Finding struct {
	// Oracle names the violated check, e.g. "undirected-route-replay".
	Oracle string `json:"oracle"`
	// Detail is the reproduction context (graph, pair, got/want).
	Detail string `json:"detail"`
}

func (f Finding) String() string { return f.Oracle + ": " + f.Detail }

// Report is the verdict of one checker mode on one graph.
type Report struct {
	Mode string `json:"mode"` // routes | invariants | kernels | faultroutes | cluster | chaos
	D    int    `json:"d"`
	K    int    `json:"k"`
	// Checked counts verified units: ordered pairs (routes) or
	// asserted invariants (invariants); the other modes document
	// their own unit.
	Checked int `json:"checked"`
	// Sampled reports that the pair set was a seeded sample rather
	// than exhaustive (routes mode above Options sample threshold).
	Sampled bool `json:"sampled,omitempty"`
	// Findings lists every divergence, capped at the configured
	// maximum; Truncated is set when the cap stopped the scan early.
	Findings  []Finding `json:"findings"`
	Truncated bool      `json:"truncated,omitempty"`
}

// OK reports a clean verdict.
func (r Report) OK() bool { return len(r.Findings) == 0 && !r.Truncated }

// findings accumulates divergences up to a cap.
type findings struct {
	list []Finding
	max  int
}

func newFindings(max int) *findings {
	if max <= 0 {
		max = 32
	}
	return &findings{max: max}
}

// full reports that the cap was reached (the scan should stop).
func (f *findings) full() bool { return len(f.list) >= f.max }

// result returns the list, never nil — JSON verdicts render a clean
// report as "findings": [].
func (f *findings) result() []Finding {
	if f.list == nil {
		return []Finding{}
	}
	return f.list
}

func (f *findings) addf(oracle, format string, args ...any) {
	if f.full() {
		return
	}
	f.list = append(f.list, Finding{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}
