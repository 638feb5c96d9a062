// Package verify implements the query-verification model of §4 of
// the qhorn paper: given a user-specified role-preserving qhorn query
// qg, it constructs the verification set — O(k) membership questions
// of the six families of Fig. 6 (A1–A4 expected answers, N1–N2
// expected non-answers) — and decides whether the user's intended
// query agrees with qg on every question. By Theorem 4.2 the set is
// complete: any semantic difference between qg and the intended query
// surfaces as a disagreement on some question.
package verify

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// Kind identifies the question family of Fig. 6.
type Kind string

// The six question families of Fig. 6.
const (
	// A1: one question containing the distinguishing tuples of all
	// dominant existential expressions, including guarantee clauses.
	A1 Kind = "A1"
	// A2: per dominant universal Horn expression, the all-true tuple
	// plus the children of its universal distinguishing tuple.
	A2 Kind = "A2"
	// A3: per (dominant conjunction C, head h) with bodies Bi ⊂ C,
	// the all-true tuple plus the search roots excluding one body
	// variable from each Bi.
	A3 Kind = "A3"
	// A4: the all-true tuple plus one tuple per non-head variable x
	// with only x false.
	A4 Kind = "A4"
	// N1: per dominant existential distinguishing tuple not due to a
	// guarantee clause, its children plus all other A1 tuples.
	N1 Kind = "N1"
	// N2: per dominant universal Horn expression, the all-true tuple
	// plus its distinguishing tuple.
	N2 Kind = "N2"
)

// Question is one membership question of a verification set together
// with the classification the given query assigns it.
type Question struct {
	Kind Kind
	// Expect is the given query's classification: true for answer.
	Expect bool
	// Set is the membership question itself.
	Set boolean.Set
	// About describes the expression the question probes, for
	// diagnostics ("∀x1x4 → x5", "∃x2x3x4x5 / head x5", …).
	About string
	// Head is the universal head variable the question probes
	// (A2/N2/A3), or -1. The revision algorithm uses it to localize
	// repairs.
	Head int
	// Conj is the distinguishing tuple of the existential conjunction
	// the question probes (N1/A3), or 0.
	Conj boolean.Tuple
}

// Set is the verification set of a query: the full list of questions
// in deterministic order (A1, N1, A2, N2, A3, A4).
type Set struct {
	Query     query.Query // the normalized given query
	Questions []Question
}

// Build constructs the verification set of qg (§4.1–§4.2). qg must be
// role-preserving; Build normalizes it first (dominant expressions
// only, rules R1–R3).
func Build(qg query.Query) (Set, error) {
	if !qg.IsRolePreserving() {
		return Set{}, fmt.Errorf("verify: query %s is not role-preserving", qg)
	}
	nf := qg.Normalize()
	b := builder{q: nf, u: nf.U}
	b.build()
	return Set{Query: nf, Questions: b.questions}, nil
}

type builder struct {
	q         query.Query
	u         boolean.Universe
	questions []Question
}

func (b *builder) add(kind Kind, expect bool, about string, head int, conj boolean.Tuple, tuples ...boolean.Tuple) {
	b.questions = append(b.questions, Question{
		Kind:   kind,
		Expect: expect,
		Set:    boolean.NewSet(tuples...),
		About:  about,
		Head:   head,
		Conj:   conj,
	})
}

func (b *builder) build() {
	domU := b.q.DominantUniversals()
	domC := b.q.DominantConjunctions()
	all := b.u.All()

	// Guarantee-clause distinguishing tuples, to exclude from N1.
	guarantee := map[boolean.Tuple]bool{}
	for _, e := range domU {
		guarantee[b.q.Closure(e.Body.With(e.Head))] = true
	}

	// A1: all dominant existential distinguishing tuples, answer.
	// For the empty query this is the empty object (the footnote of
	// §3.2.2 explicitly allows asking about the empty set), which any
	// non-trivial intended query classifies as a non-answer.
	b.add(A1, true, "all dominant existential expressions", -1, 0, domC...)

	// N1: per non-guarantee distinguishing tuple, children plus the
	// other A1 tuples, non-answer.
	for _, t := range domC {
		if guarantee[t] {
			continue
		}
		tuples := b.childrenOf(t)
		for _, other := range domC {
			if other != t {
				tuples = append(tuples, other)
			}
		}
		b.add(N1, false, "∃"+varsName(t), -1, t, tuples...)
	}

	// A2 and N2: per dominant universal Horn expression.
	for _, e := range domU {
		tg := b.q.UniversalDistinguishingTuple(e)
		if !e.Body.IsEmpty() {
			tuples := []boolean.Tuple{all}
			for _, v := range e.Body.Vars() {
				tuples = append(tuples, tg.Without(v))
			}
			b.add(A2, true, e.String(), e.Head, 0, tuples...)
		}
		b.add(N2, false, e.String(), e.Head, 0, all, tg)
	}

	// A3: per dominant conjunction C and head h whose bodies include
	// at least one Bi ⊂ C, the search roots for further bodies.
	for _, c := range domC {
		byHead := map[int][]boolean.Tuple{}
		for _, e := range domU {
			if c.Contains(e.Body) && e.Body != c && !e.Body.IsEmpty() && c.Has(e.Head) {
				byHead[e.Head] = append(byHead[e.Head], e.Body)
			}
		}
		for h := 0; h < b.u.N(); h++ {
			bodies := byHead[h]
			if len(bodies) == 0 {
				continue
			}
			tuples := []boolean.Tuple{all}
			tuples = append(tuples, b.a3Roots(c, h, bodies)...)
			b.add(A3, true, fmt.Sprintf("∃%s / head x%d", varsName(c), h+1), h, c, tuples...)
		}
	}

	// A4: one question probing every non-head variable, answer.
	heads := b.q.UniversalHeads()
	nonHeads := b.u.Complement(heads)
	if !nonHeads.IsEmpty() {
		tuples := []boolean.Tuple{all}
		for _, x := range nonHeads.Vars() {
			tuples = append(tuples, all.Without(x))
		}
		b.add(A4, true, "non-head variables "+varsName(nonHeads), -1, 0, tuples...)
	}
}

// childrenOf returns the lattice children of an existential
// distinguishing tuple, excluding tuples that violate a universal
// Horn expression of the query (§4.2 N1).
func (b *builder) childrenOf(t boolean.Tuple) []boolean.Tuple {
	var out []boolean.Tuple
	for _, v := range t.Vars() {
		c := t.Without(v)
		if !b.q.Violates(c) {
			out = append(out, c)
		}
	}
	return out
}

// a3Roots builds the A3 search roots for conjunction c and head h
// with bodies (all ⊂ c): one body variable from each body false, the
// other conjunction variables true, h false, other heads true, and
// every remaining variable true when that does not complete a
// violated universal expression (§4.2's construction).
func (b *builder) a3Roots(c boolean.Tuple, h int, bodies []boolean.Tuple) []boolean.Tuple {
	heads := b.q.UniversalHeads()
	outside := b.u.Complement(c.Union(heads))
	var roots []boolean.Tuple
	seen := map[boolean.Tuple]bool{}
	var rec func(i int, excluded boolean.Tuple)
	rec = func(i int, excluded boolean.Tuple) {
		if i == len(bodies) {
			t := c.Minus(excluded).Union(heads).Without(h)
			// Greedily raise the variables outside C ∪ heads.
			for _, w := range outside.Vars() {
				if !b.q.Violates(t.With(w)) {
					t = t.With(w)
				}
			}
			if !seen[t] {
				seen[t] = true
				roots = append(roots, t)
			}
			return
		}
		for _, v := range bodies[i].Vars() {
			rec(i+1, excluded.With(v))
		}
	}
	rec(0, 0)
	return roots
}

func varsName(t boolean.Tuple) string {
	s := ""
	for _, v := range t.Vars() {
		s += fmt.Sprintf("x%d", v+1)
	}
	return s
}

// Disagreement reports one verification question on which the user's
// intended query differs from the given query.
type Disagreement struct {
	Question Question
	// Got is the user's classification of the question.
	Got bool
}

// Result is the outcome of verifying a query against a user.
type Result struct {
	// Correct is true when the user agreed with every question.
	Correct bool
	// Disagreements lists every question the user classified
	// differently from the given query.
	Disagreements []Disagreement
	// QuestionsAsked is the size of the verification set.
	QuestionsAsked int
}

// SelfConsistent reports whether the given query classifies every
// question of its own verification set as expected. It always holds
// for role-preserving queries and is checked by tests; a false result
// indicates a bug in the construction.
func (vs Set) SelfConsistent() bool {
	for _, q := range vs.Questions {
		if vs.Query.Eval(q.Set) != q.Expect {
			return false
		}
	}
	return true
}
