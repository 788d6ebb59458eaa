package core

import (
	"fmt"

	"repro/internal/word"
)

// Router is the §4 remark made concrete: "appropriately implemented,
// the constant factors of our linear algorithms are low enough to make
// these algorithms of practical use". It evaluates Theorem 2 and
// builds Algorithm 2 routes on a private scratch, so repeated routing
// on one DN(d,k) — the forwarding hot path — performs no per-query
// heap allocation beyond the returned path. Not safe for concurrent
// use; give each forwarding goroutine its own Router.
type Router struct {
	k  int
	sc *scratch
}

// NewRouter returns a Router for words of length k.
func NewRouter(k int) *Router {
	return &Router{k: k, sc: new(scratch)}
}

// Distance evaluates Theorem 2 without allocating.
func (r *Router) Distance(x, y word.Word) (int, error) {
	if err := r.load(x, y); err != nil {
		return 0, err
	}
	if x.Equal(y) {
		return 0, nil
	}
	aL, aR := r.sc.anchorsQuadratic(r.sc.xd, r.sc.yd)
	if aR.dist < aL.dist {
		return aR.dist, nil
	}
	return aL.dist, nil
}

// Route builds an Algorithm 2 shortest path, allocating only the
// returned Path.
func (r *Router) Route(x, y word.Word) (Path, error) {
	if err := r.load(x, y); err != nil {
		return nil, err
	}
	if x.Equal(y) {
		return Path{}, nil
	}
	aL, aR := r.sc.anchorsQuadratic(r.sc.xd, r.sc.yd)
	return buildUndirectedPath(y, aL, aR), nil
}

func (r *Router) load(x, y word.Word) error {
	if err := validatePair(x, y); err != nil {
		return err
	}
	if x.Len() != r.k {
		return wrongLenError(r.k, x.Len())
	}
	r.sc.loadDigits(x, y)
	return nil
}

func wrongLenError(want, got int) error {
	return fmt.Errorf("core: router built for length %d, got %d", want, got)
}
