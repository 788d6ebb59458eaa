// Package debruijn is the public API of this reproduction of
// "Optimal Routing in the De Bruijn Networks" (Zhen Liu, INRIA
// RR-1130, 1989 / ICDCS 1990).
//
// The de Bruijn network DN(d,k) connects N = d^k sites, one per d-ary
// word of length k, by shift-register links: X is linked to its
// type-L neighbors X⁻(a) = (x_2,…,x_k,a) and type-R neighbors
// X⁺(a) = (a,x_1,…,x_{k-1}). The paper gives closed-form distance
// functions for the uni-directional (Property 1) and bi-directional
// (Theorem 2) networks, and three routing algorithms:
//
//   - Algorithm 1 (RouteDirected): uni-directional shortest paths in
//     O(k) via the longest suffix/prefix overlap;
//   - Algorithm 2 (RouteUndirected): bi-directional shortest paths in
//     O(k²) time and O(k) space via Morris–Pratt failure functions;
//   - Algorithm 4 (RouteUndirectedLinear): bi-directional shortest
//     paths in O(k) via Weiner's compact prefix tree.
//
// Quick start:
//
//	x := debruijn.MustParse(2, "0110")
//	y := debruijn.MustParse(2, "1011")
//	p, _ := debruijn.RouteUndirectedLinear(x, y) // {(1,1)} — one right shift
//	d, _ := debruijn.UndirectedDistance(x, y)    // 1
//
// The implementation packages live under internal/: word (vertex
// labels), match (Algorithm 3 machinery), suffixtree (Weiner trees),
// graph (BFS baseline), core (the contribution), network (the DN(d,k)
// simulator), dbseq/embed/fault (the properties Section 1 cites), and
// stats. This package re-exports the surface a routing user needs; the
// simulator and experiment harness are exercised by the cmd/ binaries
// and examples/.
package debruijn

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/word"
)

// Word is a d-ary word of length k: a vertex of DG(d,k).
type Word = word.Word

// Hop is one (a,b) element of a routing path.
type Hop = core.Hop

// HopType distinguishes type-L (left-shift) from type-R (right-shift)
// hops.
type HopType = core.HopType

// Path is a routing path {(a_1,b_1),…,(a_n,b_n)}.
type Path = core.Path

// Chooser resolves wildcard hops when applying a path.
type Chooser = core.Chooser

// Hop type constants.
const (
	TypeL = core.TypeL
	TypeR = core.TypeR
)

// Parse decodes a word such as "0110" (base 2) or "a3f" (base 16).
func Parse(base int, s string) (Word, error) { return word.Parse(base, s) }

// MustParse is Parse for literals; it panics on error.
func MustParse(base int, s string) Word { return word.MustParse(base, s) }

// NewWord builds a word from explicit digit values.
func NewWord(base int, digits []byte) (Word, error) { return word.New(base, digits) }

// NumVertices returns d^k, the size of DN(d,k).
func NumVertices(d, k int) (int, error) { return word.Count(d, k) }

// DirectedDistance is Property 1: the distance from X to Y in the
// uni-directional network, k minus the longest suffix/prefix overlap.
func DirectedDistance(x, y Word) (int, error) { return core.DirectedDistance(x, y) }

// UndirectedDistance is Theorem 2 evaluated in O(k²).
func UndirectedDistance(x, y Word) (int, error) { return core.UndirectedDistance(x, y) }

// UndirectedDistanceLinear is Theorem 2 evaluated in O(k) via the
// compact prefix tree.
func UndirectedDistanceLinear(x, y Word) (int, error) { return core.UndirectedDistanceLinear(x, y) }

// RouteDirected is Algorithm 1.
func RouteDirected(x, y Word) (Path, error) { return core.RouteDirected(x, y) }

// RouteUndirected is Algorithm 2.
func RouteUndirected(x, y Word) (Path, error) { return core.RouteUndirected(x, y) }

// RouteUndirectedLinear is Algorithm 4.
func RouteUndirectedLinear(x, y Word) (Path, error) { return core.RouteUndirectedLinear(x, y) }

// DirectedMeanFormula is equation (5), the paper's closed-form average
// directed distance.
func DirectedMeanFormula(d, k int) float64 { return core.DirectedMeanFormula(d, k) }

// Router is the reusable, allocation-free Algorithm 2 evaluator for
// forwarding hot paths (§4's constant-factor remark); one per
// goroutine.
type Router = core.Router

// NewRouter returns a Router for DN(·,k) words of length k.
func NewRouter(k int) *Router { return core.NewRouter(k) }

// Graph builds the de Bruijn graph DG(d,k) (directed or undirected)
// with BFS, diameter, census and DOT export — the baseline substrate.
func Graph(kind GraphKind, d, k int) (*graph.Graph, error) { return graph.DeBruijn(kind, d, k) }

// GraphKind selects directed or undirected graphs.
type GraphKind = graph.Kind

// Graph kinds.
const (
	Directed   = graph.Directed
	Undirected = graph.Undirected
)
