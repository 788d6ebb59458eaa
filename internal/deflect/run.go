package deflect

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/word"
)

// LoadConfig describes an open-loop offered-load run: for Rounds
// rounds, every site independently offers a message to a uniform
// random destination with probability Rate per round (the same
// Bernoulli arrival process as network.RunOpenLoop, so the
// store-and-forward comparison in E18 is rate-matched), then the
// network drains.
type LoadConfig struct {
	D, K           int
	Unidirectional bool
	// Policy deflects contention losers; PolicyRandom when nil.
	Policy Policy
	// Rate is the per-site per-round injection probability, in (0, 1].
	Rate float64
	// Rounds is the injection window length.
	Rounds int
	// MaxAge, Seed, Obs are passed through to the engine (Seed also
	// drives the arrival process, on an independent stream).
	MaxAge int
	Seed   int64
	Obs    *obs.Registry
}

// LoadResult is the outcome of one offered-load run. Offered counts
// injection attempts (accepted + refused); the embedded Stats cover
// the whole run including the drain.
type LoadResult struct {
	Offered int
	// DrainRounds is how many rounds past the injection window the
	// network needed to empty.
	DrainRounds int
	Stats
}

// RunLoad executes the open-loop experiment and drains the network.
// The age guard bounds the drain, so RunLoad always terminates.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	var res LoadResult
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return res, fmt.Errorf("deflect: rate %v outside (0, 1]", cfg.Rate)
	}
	if cfg.Rounds < 1 {
		return res, fmt.Errorf("deflect: rounds %d < 1", cfg.Rounds)
	}
	e, err := New(Config{
		D: cfg.D, K: cfg.K,
		Unidirectional: cfg.Unidirectional,
		Policy:         cfg.Policy,
		Seed:           cfg.Seed,
		MaxAge:         cfg.MaxAge,
		Obs:            cfg.Obs,
	})
	if err != nil {
		return res, err
	}
	// Arrivals draw from their own stream so changing a policy's
	// random-consumption pattern never perturbs the offered traffic.
	arr := rand.New(rand.NewSource(cfg.Seed ^ 0x5e3779b97f4a7c15))
	n := e.NumSites()
	for r := 0; r < cfg.Rounds; r++ {
		for v := 0; v < n; v++ {
			if arr.Float64() >= cfg.Rate {
				continue
			}
			res.Offered++
			e.inject(v, word.RandomRank(cfg.D, cfg.K, arr))
		}
		if err := e.Step(); err != nil {
			return res, err
		}
	}
	// Drain: the age guard removes any message within MaxAge rounds of
	// its injection, so the bound below is unreachable unless the
	// engine itself is broken.
	limit := e.Config().MaxAge + 1
	for e.Inflight() > 0 {
		if res.DrainRounds++; res.DrainRounds > limit {
			return res, fmt.Errorf("deflect: drain exceeded the age-guard bound of %d rounds", limit)
		}
		if err := e.Step(); err != nil {
			return res, err
		}
	}
	res.Stats = e.Stats()
	return res, nil
}
