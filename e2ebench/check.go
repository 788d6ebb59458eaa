package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/word"
)

// answer is the checked part of one scalar wire answer.
type answer struct {
	dist int
	path []string
	hop  string
	done bool
}

func answerOf(r *serve.Response) answer {
	return answer{dist: r.Distance, path: r.Path, hop: r.NextHop, done: r.Done}
}

// fingerprint hashes an answer, so that a repeat of an answer already
// checked costs one comparison.
func (a answer) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%t", a.dist, a.hop, a.done)
	for _, s := range a.path {
		h.Write([]byte{'|'})
		h.Write([]byte(s))
	}
	return h.Sum64()
}

// expect collects every distinct answer the server gave to one query.
type expect struct {
	q    serve.Query
	seen []seenAnswer
}

type seenAnswer struct {
	fp  uint64
	n   int64 // times given
	bad bool  // checked and wrong
}

// pending is an answer not yet checked against the reference.
type pending struct {
	e *expect
	i int // index into e.seen
	a answer
}

// answerBook maps each distinct query of a run to its expect and
// counts the ops whose answer was wrong. New answers wait in todo
// until verify checks them, between timed passes.
type answerBook struct {
	m      map[string]*expect
	todo   []pending
	failed int64
	errs   []error
	// took is the time verify has spent checking.
	took time.Duration
}

func newAnswerBook() *answerBook { return &answerBook{m: make(map[string]*expect)} }

// lookup returns the expect of q, creating it on first sight.
func (b *answerBook) lookup(q serve.Query) *expect {
	key := string(q.AppendKey(nil))
	e, ok := b.m[key]
	if !ok {
		e = &expect{q: q}
		b.m[key] = e
	}
	return e
}

// record notes one answer to e's query.
func (b *answerBook) record(e *expect, a answer) {
	fp := a.fingerprint()
	for i := range e.seen {
		if s := &e.seen[i]; s.fp == fp {
			s.n++
			if s.bad {
				b.failed++
			}
			return
		}
	}
	e.seen = append(e.seen, seenAnswer{fp: fp, n: 1})
	b.todo = append(b.todo, pending{e: e, i: len(e.seen) - 1, a: a})
}

// account records the responses of one pass and returns the ops that
// failed outright: a transport error, a shed or error status, a
// degraded answer, or a batch of the wrong size.
func (b *answerBook) account(p *pass, resps []serve.Response) (failed int64) {
	for i := range resps {
		r := &resps[i]
		ops := p.ops[i]
		if r.Status != serve.StatusOK {
			failed += int64(len(ops))
			continue
		}
		if len(p.reqs[i].Batch) == 0 {
			if r.Degrade != "" {
				failed++
				continue
			}
			b.record(ops[0].exp, answerOf(r))
			continue
		}
		if len(r.Batch) != len(ops) {
			failed += int64(len(ops))
			continue
		}
		for j := range ops {
			sub := &r.Batch[j]
			if sub.Status != serve.StatusOK || sub.Degrade != "" {
				failed++
				continue
			}
			b.record(ops[j].exp, answerOf(sub))
		}
	}
	return failed
}

// verify checks every pending answer against the reference functions
// and adds the ops that got a wrong one to b.failed.
func (b *answerBook) verify() {
	t0 := time.Now()
	defer func() { b.took += time.Since(t0) }()
	for _, t := range b.todo {
		err := checkQuery(t.e.q, t.a)
		if err == nil {
			continue
		}
		s := &t.e.seen[t.i]
		s.bad = true
		b.failed += s.n
		if len(b.errs) < 5 {
			b.errs = append(b.errs, fmt.Errorf("%v %v -> %v: %w", t.e.q.Kind, t.e.q.Src, t.e.q.Dst, err))
		}
	}
	b.todo = b.todo[:0]
}

// checkQuery checks one answer to q against the reference distance.
func checkQuery(q serve.Query, a answer) error {
	ref, err := core.UndirectedDistance(q.Src, q.Dst)
	if err != nil {
		return err
	}
	return checkAnswer(q, a, ref)
}

var errWrongAnswer = errors.New("wrong answer")

// checkAnswer checks one answer to q against the reference distance ref
// = core.UndirectedDistance(src, dst): a distance must equal it; a
// route's hops must lead from src to dst in exactly ref hops; a next
// hop must lower the reference distance by exactly one.
func checkAnswer(q serve.Query, a answer, ref int) error {
	switch q.Kind {
	case serve.KindDistance:
		if a.dist != ref {
			return fmt.Errorf("%w: distance %d, reference %d", errWrongAnswer, a.dist, ref)
		}
	case serve.KindRoute:
		if a.dist != ref {
			return fmt.Errorf("%w: route distance %d, reference %d", errWrongAnswer, a.dist, ref)
		}
		if len(a.path) != ref {
			return fmt.Errorf("%w: route of %d hops, reference distance %d", errWrongAnswer, len(a.path), ref)
		}
		p, err := parsePath(a.path)
		if err != nil {
			return err
		}
		end, err := p.Apply(q.Src, core.FirstDigit)
		if err != nil {
			return fmt.Errorf("%w: %w", errWrongAnswer, err)
		}
		if !end.Equal(q.Dst) {
			return fmt.Errorf("%w: route ends at %v", errWrongAnswer, end)
		}
	case serve.KindNextHop:
		if ref == 0 {
			if !a.done || a.hop != "" {
				return fmt.Errorf("%w: src = dst needs done, got hop %q", errWrongAnswer, a.hop)
			}
			return nil
		}
		if a.done {
			return fmt.Errorf("%w: done at distance %d", errWrongAnswer, ref)
		}
		p, err := parsePath([]string{a.hop})
		if err != nil {
			return err
		}
		next, err := p.Apply(q.Src, core.FirstDigit)
		if err != nil {
			return fmt.Errorf("%w: %w", errWrongAnswer, err)
		}
		d, err := core.UndirectedDistance(next, q.Dst)
		if err != nil {
			return err
		}
		if d != ref-1 {
			return fmt.Errorf("%w: next hop %s leads to distance %d from %d", errWrongAnswer, a.hop, d, ref)
		}
	default:
		return fmt.Errorf("%w: unexpected kind %v", errWrongAnswer, q.Kind)
	}
	return nil
}

func parsePath(hops []string) (core.Path, error) {
	p := make(core.Path, len(hops))
	for i, s := range hops {
		h, err := serve.ParseHop(s)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errWrongAnswer, err)
		}
		p[i] = h
	}
	return p, nil
}

// undirected builds an undirected query.
func undirected(kind serve.Kind, src, dst word.Word) serve.Query {
	return serve.Query{Kind: kind, Mode: serve.Undirected, Src: src, Dst: dst}
}
