package experiments

import (
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ChaosRow is one cell of experiment E24: a workload shape driven
// through a fault schedule against a single-node server, plus one
// final churn-storm row measured against a whole cluster. The cells
// are the chaos oracle's own (check.ChaosGrid, check.ChaosStorm); a
// row renders the ledger the oracle asserts on. The Sent / Answered /
// Degraded / Shed columns are the server-side outcome ledger; Errs
// counts client-observed transport failures (timeouts, severed
// connections); Conserved reports whether the ledger balanced exactly
// after drain — the experiment's claim is that it always does, no
// matter what the link did.
type ChaosRow struct {
	Shape     string
	Schedule  string
	Sent      int64
	Answered  int64
	Degraded  int64
	Shed      int64
	Errs      int64
	P99MS     float64
	Conserved bool
}

// ChaosRunConfig shapes the E24 sweep.
type ChaosRunConfig struct {
	Requests int // per cell, default 240
	Seed     int64
}

// ChaosRun sweeps the shape × schedule grid and appends the
// churn-storm row. A broken conservation identity is reported in the
// row, not returned as an error — the table exists to show the ledger
// holding under every schedule, so a violation is the data point.
func ChaosRun(cfg ChaosRunConfig) ([]ChaosRow, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 240
	}
	var rows []ChaosRow
	err := check.ChaosGrid(cfg.Seed, cfg.Requests, func(l check.ChaosLedger) bool {
		c := l.Counts
		rows = append(rows, ChaosRow{l.Shape, l.Schedule, c.Sent, c.Answered, c.Degraded, c.Shed,
			l.Load.Errors, float64(l.Load.P99) / float64(time.Millisecond), l.Settled})
		return true
	})
	if err != nil {
		return nil, err
	}
	l, err := check.ChaosStorm(cfg.Seed, cfg.Requests)
	if err != nil {
		return nil, err
	}
	c, t := l.Counts, cluster.Total(l.Drivers)
	return append(rows, ChaosRow{"churn-storm", "kill-burst", c.Sent, c.Answered, c.Degraded, c.Shed,
		int64(t.Errs), float64(serve.Percentile(t.Lats, 0.99)) / float64(time.Millisecond), l.Settled}), nil
}

// ChaosTable renders E24: one row per shape × schedule cell plus the
// churn-storm row.
func ChaosTable(cfg ChaosRunConfig) (*stats.Table, error) {
	rows, err := ChaosRun(cfg)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("shape", "schedule", "sent", "answered", "degraded", "shed", "errs", "p99_ms", "conserved")
	for _, r := range rows {
		t.AddRow(r.Shape, r.Schedule, r.Sent, r.Answered, r.Degraded, r.Shed, r.Errs, r.P99MS, r.Conserved)
	}
	return t, nil
}
