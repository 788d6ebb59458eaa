package deflect

// Policy selects which free output link a message takes when more than
// one candidate remains after the advancing/deflecting split: among
// free advancing links when any exist, otherwise among all free links
// (a deflection). Implementations return an index into candidates.
//
// The candidates slice holds the next-hop vertices in the adjacency
// order of the graph; it is scratch owned by the engine and must not
// be retained. Policies may use the engine's seeded generator (e.rng
// via helpers) so runs stay reproducible.
type Policy interface {
	// Choose returns the index of the chosen candidate. ly is the
	// layer decomposition toward the message's destination and from is
	// the current site's vertex.
	Choose(e *Engine, ly *Layers, from int, candidates []int32) (int, error)
	// Name is the stable identifier used in CLI flags and E18 rows.
	Name() string
}

// PolicyRandom picks uniformly among the candidates. It is the
// baseline E18 policy: oblivious to distance, so deflections can move
// a message arbitrarily far from its destination.
type PolicyRandom struct{}

// Name implements Policy.
func (PolicyRandom) Name() string { return "random" }

// Choose implements Policy.
func (PolicyRandom) Choose(e *Engine, _ *Layers, _ int, candidates []int32) (int, error) {
	return e.rng.Intn(len(candidates)), nil
}

// PolicyMinIncrease reads each candidate's distance from the layer
// decomposition and takes the first candidate of minimal distance. A
// deflection under this policy costs the least distance increase the
// free links allow; the first-of-minima tie-break makes the policy
// fully deterministic.
type PolicyMinIncrease struct{}

// Name implements Policy.
func (PolicyMinIncrease) Name() string { return "min-increase" }

// Choose implements Policy.
func (PolicyMinIncrease) Choose(_ *Engine, ly *Layers, _ int, candidates []int32) (int, error) {
	best, bestDist := 0, -1
	for i, u := range candidates {
		if d := ly.Dist(int(u)); bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, nil
}

// PolicyLayerAware reads each candidate's layer index from the
// decomposition, as PolicyMinIncrease does, and picks uniformly among
// the candidates in the lowest layer. The two differ only in the
// tie-break: the chosen layer is the same minimum, but the randomized
// pick spreads contending traffic across equivalent links instead of
// repeatedly colliding on the first one.
type PolicyLayerAware struct{}

// Name implements Policy.
func (PolicyLayerAware) Name() string { return "layer-aware" }

// Choose implements Policy.
func (PolicyLayerAware) Choose(e *Engine, ly *Layers, _ int, candidates []int32) (int, error) {
	minIdx := e.minIdx[:0]
	bestDist := -1
	for i, u := range candidates {
		d := ly.Dist(int(u))
		switch {
		case bestDist < 0 || d < bestDist:
			bestDist = d
			minIdx = append(minIdx[:0], i)
		case d == bestDist:
			minIdx = append(minIdx, i)
		}
	}
	e.minIdx = minIdx
	if len(minIdx) == 1 {
		return minIdx[0], nil
	}
	return minIdx[e.rng.Intn(len(minIdx))], nil
}

// Policies lists the built-in policies in presentation order.
func Policies() []Policy {
	return []Policy{PolicyRandom{}, PolicyMinIncrease{}, PolicyLayerAware{}}
}

// PolicyByName resolves a CLI policy name; nil when unknown.
func PolicyByName(name string) Policy {
	for _, p := range Policies() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}
