// Package query implements the qhorn query class of Abouzied et al.
// (PODS 2013, §2.1): conjunctions of quantified Horn expressions over
// the tuples of a nested relation, with guarantee clauses, the
// equivalence rules R1–R3, normalization to dominant distinguishing
// tuples, the qhorn-1 and role-preserving subclasses, the structural
// metrics (query size k, causal density θ), a parser and printer for
// the paper's shorthand notation, and random query generators.
package query

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"qhorn/internal/boolean"
)

// Quantifier distinguishes universal (∀t ∈ S) from existential
// (∃t ∈ S) expressions.
type Quantifier uint8

const (
	// Forall quantifies an expression over every tuple of the object.
	Forall Quantifier = iota
	// Exists quantifies an expression over at least one tuple.
	Exists
)

// String returns the paper's symbol for the quantifier.
func (q Quantifier) String() string {
	switch q {
	case Forall:
		return "∀"
	case Exists:
		return "∃"
	default:
		return fmt.Sprintf("Quantifier(%d)", uint8(q))
	}
}

// NoHead marks a headless expression: an existential conjunction.
const NoHead = -1

// Expr is one quantified (Horn) expression of a qhorn query.
//
//   - Quant == Forall: the universal Horn expression ∀ Body → Head.
//     Head must be a valid variable; Body may be empty (the paper's
//     degenerate bodyless expression ∀h). Per §2.1 every universal
//     Horn expression carries an implicit guarantee clause
//     ∃ Body ∪ {Head}, which evaluation enforces.
//   - Quant == Exists, Head == NoHead: the existential conjunction
//     ∃ Body.
//   - Quant == Exists, Head >= 0: the existential Horn expression
//     ∃ Body → Head, which together with its guarantee clause is
//     equivalent to the conjunction ∃ Body ∪ {Head} (§2.1 property 2).
type Expr struct {
	Quant Quantifier
	Body  boolean.Tuple
	Head  int
}

// UniversalHorn returns the expression ∀ body → head.
func UniversalHorn(body boolean.Tuple, head int) Expr {
	return Expr{Quant: Forall, Body: body, Head: head}
}

// BodylessUniversal returns the expression ∀ head.
func BodylessUniversal(head int) Expr {
	return Expr{Quant: Forall, Head: head}
}

// ExistentialHorn returns the expression ∃ body → head.
func ExistentialHorn(body boolean.Tuple, head int) Expr {
	return Expr{Quant: Exists, Body: body, Head: head}
}

// Conjunction returns the existential conjunction ∃ vars.
func Conjunction(vars boolean.Tuple) Expr {
	return Expr{Quant: Exists, Body: vars, Head: NoHead}
}

// Vars returns all variables mentioned by the expression: the body
// plus the head, if any.
func (e Expr) Vars() boolean.Tuple {
	if e.Head == NoHead {
		return e.Body
	}
	return e.Body.With(e.Head)
}

// IsConjunction reports whether e is a headless existential
// conjunction.
func (e Expr) IsConjunction() bool {
	return e.Quant == Exists && e.Head == NoHead
}

// validate checks the structural invariants of the expression within
// a universe of n variables.
func (e Expr) validate(u boolean.Universe) error {
	if !u.Contains(e.Body) {
		return fmt.Errorf("query: body %v outside universe of %d variables", e.Body, u.N())
	}
	switch {
	case e.Head == NoHead:
		if e.Quant == Forall {
			return fmt.Errorf("query: universal expression must have a head")
		}
		if e.Body.IsEmpty() {
			return fmt.Errorf("query: empty existential conjunction")
		}
	case e.Head < 0 || e.Head >= u.N():
		return fmt.Errorf("query: head x%d outside universe of %d variables", e.Head+1, u.N())
	case e.Body.Has(e.Head):
		return fmt.Errorf("query: head x%d appears in its own body", e.Head+1)
	}
	return nil
}

// String renders the expression in the paper's shorthand, e.g.
// "∀x1x2 → x3", "∀x4", "∃x1x2x5".
func (e Expr) String() string { return string(e.appendTo(nil)) }

// appendTo appends the expression's shorthand to b.
func (e Expr) appendTo(b []byte) []byte {
	b = append(b, e.Quant.String()...)
	switch {
	case e.Head == NoHead:
		b = appendVars(b, e.Body)
	case e.Body.IsEmpty():
		b = appendVar(b, e.Head)
	default:
		b = appendVars(b, e.Body)
		b = append(b, " → "...)
		b = appendVar(b, e.Head)
	}
	return b
}

// appendVars appends t's variables in ascending order, as "x1x2…".
func appendVars(b []byte, t boolean.Tuple) []byte {
	for ; !t.IsEmpty(); t = t.Without(t.Lowest()) {
		b = appendVar(b, t.Lowest())
	}
	return b
}

// appendVar appends variable v's name, "x" and its 1-based index.
func appendVar(b []byte, v int) []byte {
	return strconv.AppendInt(append(b, 'x'), int64(v)+1, 10)
}

// Query is a qhorn query: a conjunction of quantified (Horn)
// expressions over the Boolean abstraction of an embedded relation's
// tuples (§2.1). The zero value is the empty query over zero
// variables, which classifies every object as an answer.
type Query struct {
	// U is the universe of Boolean variables, one per proposition.
	U boolean.Universe
	// Exprs are the conjoined expressions. Guarantee clauses are
	// implicit and enforced by evaluation; they are never stored.
	Exprs []Expr
	// normal marks a query produced by Normalize, whose expression
	// list is already the canonical normal form. Normalize returns such
	// queries unchanged, so Equivalent and Implies never re-derive a
	// normal form they already hold; literal construction clears the
	// flag, which only ever costs a recomputation.
	normal bool
}

// New builds a validated query. It returns an error if any expression
// is structurally invalid for the universe.
func New(u boolean.Universe, exprs ...Expr) (Query, error) {
	q := Query{U: u, Exprs: exprs}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustNew is New for fixtures and examples; it panics on error.
func MustNew(u boolean.Universe, exprs ...Expr) Query {
	q, err := New(u, exprs...)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks every expression against the universe.
func (q Query) Validate() error {
	for i, e := range q.Exprs {
		if err := e.validate(q.U); err != nil {
			return fmt.Errorf("expression %d (%s): %w", i, e, err)
		}
	}
	return nil
}

// N returns the number of Boolean variables (propositions).
func (q Query) N() int { return q.U.N() }

// Size returns the query size k of Definition 2.5: the number of
// expressions, not counting guarantee clauses.
func (q Query) Size() int { return len(q.Exprs) }

// UniversalHeads returns the set of universal head variables.
func (q Query) UniversalHeads() boolean.Tuple {
	var heads boolean.Tuple
	for _, e := range q.Exprs {
		if e.Quant == Forall {
			heads = heads.With(e.Head)
		}
	}
	return heads
}

// CausalDensity returns θ of Definition 2.6: the maximum over head
// variables h of the number of distinct non-dominated universal Horn
// expressions with head h.
func (q Query) CausalDensity() int {
	dominant := q.DominantUniversals()
	counts := map[int]int{}
	max := 0
	for _, e := range dominant {
		counts[e.Head]++
		if counts[e.Head] > max {
			max = counts[e.Head]
		}
	}
	return max
}

// String renders the query in the paper's shorthand: expressions
// separated by spaces, universals first then existentials, each group
// in deterministic order. The empty query prints as "⊤".
func (q Query) String() string {
	if len(q.Exprs) == 0 {
		return "⊤"
	}
	exprs := append([]Expr{}, q.Exprs...)
	slices.SortStableFunc(exprs, func(a, b Expr) int {
		if a.Quant != b.Quant {
			if a.Quant == Forall {
				return -1
			}
			if b.Quant == Forall {
				return 1
			}
			return 0
		}
		if a.Head != b.Head {
			return cmp.Compare(a.Head, b.Head)
		}
		return cmp.Compare(a.Body, b.Body)
	})
	b := make([]byte, 0, 16*len(exprs))
	for i, e := range exprs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = e.appendTo(b)
	}
	return string(b)
}

// Equal reports syntactic equality up to expression order and
// duplicates. For semantic equivalence use Equivalent.
func (q Query) Equal(other Query) bool {
	if q.U.N() != other.U.N() {
		return false
	}
	if q.normal && other.normal {
		// Normal forms are deduplicated and deterministically ordered,
		// so equality is element-wise — no key strings needed.
		if len(q.Exprs) != len(other.Exprs) {
			return false
		}
		for i, e := range q.Exprs {
			if other.Exprs[i] != e {
				return false
			}
		}
		return true
	}
	key := func(qq Query) string {
		parts := make([]string, len(qq.Exprs))
		for i, e := range qq.Exprs {
			parts[i] = fmt.Sprintf("%d:%x:%d", e.Quant, uint64(e.Body), e.Head)
		}
		sort.Strings(parts)
		// Collapse duplicates.
		var uniq []string
		for _, p := range parts {
			if len(uniq) == 0 || uniq[len(uniq)-1] != p {
				uniq = append(uniq, p)
			}
		}
		return strings.Join(uniq, " ")
	}
	return key(q) == key(other)
}
