// Package deep implements the multi-level-nesting direction that §6
// of the qhorn paper leaves as future work: data with several levels
// of nesting, and queries whose expressions carry one quantifier per
// level — "in such queries, a single expression can have several
// quantifiers".
//
// A depth-d object is a set of depth-(d−1) objects; depth-0 objects
// are Boolean tuples over the propositions, exactly as in the flat
// model. A depth-d expression is a quantifier prefix Q1…Qd applied to
// a (Horn) expression over the Boolean variables, e.g. over
// Shelf(Box(Chocolate)):
//
//	∀ box ∈ shelf ∃ c ∈ box (isDark ∧ hasFilling)
//
// Guarantee clauses generalize the paper's §2.1 convention: every
// expression additionally requires a fully-existential witness — some
// chain of nested elements whose leaf tuple satisfies body ∧ head —
// so degenerate empty sets at any level never satisfy a query
// vacuously.
//
// Depth-1 queries coincide exactly with the flat qhorn model
// (FromFlat/tests), and the package provides the exhaustive
// enumeration and elimination learner used by experiment E17 to
// measure how the query space and the question complexity blow up
// with depth — quantifying why the paper stops at single-level
// nesting.
package deep

import (
	"fmt"
	"strings"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// Object is a node of a depth-d nested object. Leaves carry a Boolean
// tuple; internal nodes carry a set of children. Depth is uniform: in
// a depth-d object every leaf sits below exactly d set levels.
type Object struct {
	// Tuple is the leaf payload, read only at depth 0.
	Tuple boolean.Tuple
	// Kids are the child objects of an internal node.
	Kids []Object
}

// Leaf returns a depth-0 object.
func Leaf(t boolean.Tuple) Object { return Object{Tuple: t} }

// Set returns an internal node over the given children (possibly
// none: the empty set).
func Set(kids ...Object) Object { return Object{Kids: kids} }

// Expr is a depth-d quantified (Horn) expression: the quantifier
// prefix applies outermost-first, one per nesting level.
type Expr struct {
	Prefix []query.Quantifier
	Body   boolean.Tuple
	Head   int // query.NoHead for a conjunction
}

// Vars returns body plus head.
func (e Expr) Vars() boolean.Tuple {
	if e.Head == query.NoHead {
		return e.Body
	}
	return e.Body.With(e.Head)
}

// String renders the expression, e.g. "∀∃(x1x2 → x3)".
func (e Expr) String() string {
	var b strings.Builder
	for _, q := range e.Prefix {
		b.WriteString(q.String())
	}
	b.WriteByte('(')
	for _, v := range e.Body.Vars() {
		fmt.Fprintf(&b, "x%d", v+1)
	}
	if e.Head != query.NoHead {
		if !e.Body.IsEmpty() {
			b.WriteString(" → ")
		}
		fmt.Fprintf(&b, "x%d", e.Head+1)
	}
	b.WriteByte(')')
	return b.String()
}

// Query is a conjunction of depth-d expressions.
type Query struct {
	U     boolean.Universe
	Depth int
	Exprs []Expr
}

// String renders the query; the empty query prints as ⊤.
func (q Query) String() string {
	if len(q.Exprs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(q.Exprs))
	for i, e := range q.Exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// Eval reports whether the object (of the query's depth) is an
// answer: every expression's quantified constraint holds AND its
// fully-existential guarantee witness exists.
func (q Query) Eval(o Object) bool {
	for _, e := range q.Exprs {
		if !evalPrefix(e.Prefix, e, o) {
			return false
		}
		if e.Head != query.NoHead && hasForall(e.Prefix) {
			// Guarantee clause: some chain of elements reaches a leaf
			// containing body ∪ head.
			if !existsWitness(o, len(e.Prefix), e.Vars()) {
				return false
			}
		}
	}
	return true
}

func hasForall(prefix []query.Quantifier) bool {
	for _, p := range prefix {
		if p == query.Forall {
			return true
		}
	}
	return false
}

// evalPrefix evaluates the quantified constraint recursively.
func evalPrefix(prefix []query.Quantifier, e Expr, o Object) bool {
	if len(prefix) == 0 {
		t := o.Tuple
		if e.Head == query.NoHead {
			return t.Contains(e.Body)
		}
		return !t.Contains(e.Body) || t.Has(e.Head)
	}
	switch prefix[0] {
	case query.Forall:
		for _, k := range o.Kids {
			if !evalPrefix(prefix[1:], e, k) {
				return false
			}
		}
		return true
	default: // Exists
		for _, k := range o.Kids {
			if evalPrefix(prefix[1:], e, k) {
				return true
			}
		}
		return false
	}
}

// existsWitness reports whether some depth-levels chain reaches a
// leaf containing vars.
func existsWitness(o Object, levels int, vars boolean.Tuple) bool {
	if levels == 0 {
		return o.Tuple.Contains(vars)
	}
	for _, k := range o.Kids {
		if existsWitness(k, levels-1, vars) {
			return true
		}
	}
	return false
}

// FromFlat lifts a single-level qhorn query to an equivalent depth-1
// deep query: universal Horn expressions keep their ∀ prefix,
// existential expressions become ∃ conjunctions over body ∪ head.
func FromFlat(fq query.Query) Query {
	out := Query{U: fq.U, Depth: 1}
	for _, e := range fq.Exprs {
		switch e.Quant {
		case query.Forall:
			out.Exprs = append(out.Exprs, Expr{
				Prefix: []query.Quantifier{query.Forall},
				Body:   e.Body,
				Head:   e.Head,
			})
		default:
			out.Exprs = append(out.Exprs, Expr{
				Prefix: []query.Quantifier{query.Exists},
				Body:   e.Vars(),
				Head:   query.NoHead,
			})
		}
	}
	return out
}

// FromFlatObject lifts a Boolean tuple-set to a depth-1 object.
func FromFlatObject(s boolean.Set) Object {
	kids := make([]Object, 0, s.Size())
	for _, t := range s.Tuples() {
		kids = append(kids, Leaf(t))
	}
	return Set(kids...)
}

// AllObjects enumerates every depth-d object over the universe up to
// set semantics. Sizes are towers of exponentials: it panics unless
// the total stays tiny (n·2^n… ≤ 1<<16 at every level).
func AllObjects(u boolean.Universe, depth int) []Object {
	level := make([]Object, 0, 1<<uint(u.N()))
	for _, t := range boolean.AllTuples(u) {
		level = append(level, Leaf(t))
	}
	for d := 0; d < depth; d++ {
		if len(level) > 16 {
			panic("deep: AllObjects blows up past 2^16 at the next level")
		}
		next := make([]Object, 0, 1<<uint(len(level)))
		for mask := 0; mask < 1<<uint(len(level)); mask++ {
			var kids []Object
			for i := 0; i < len(level); i++ {
				if mask&(1<<uint(i)) != 0 {
					kids = append(kids, level[i])
				}
			}
			next = append(next, Set(kids...))
		}
		level = next
	}
	return level
}

// AllQueries enumerates every semantically distinct depth-d query
// whose expressions are single conjunctions or Horn rules over the
// universe, deduplicated by exhaustive evaluation. Exponential;
// intended for the E17 measurement at n ≤ 2, depth ≤ 2.
func AllQueries(u boolean.Universe, depth int) []Query {
	exprs := allExprs(u, depth)
	objects := AllObjects(u, depth)
	var out []Query
	seen := map[string]bool{}
	// All subsets of candidate expressions, capped to pairs to keep
	// the enumeration meaningful yet finite.
	var cands []Query
	cands = append(cands, Query{U: u, Depth: depth}) // ⊤
	for i := range exprs {
		cands = append(cands, Query{U: u, Depth: depth, Exprs: []Expr{exprs[i]}})
		for j := i + 1; j < len(exprs); j++ {
			cands = append(cands, Query{U: u, Depth: depth, Exprs: []Expr{exprs[i], exprs[j]}})
		}
	}
	for _, q := range cands {
		sig := evalSignature(q, objects)
		if !seen[sig] {
			seen[sig] = true
			out = append(out, q)
		}
	}
	return out
}

// allExprs enumerates the single expressions: every quantifier
// prefix × every conjunction and Horn rule.
func allExprs(u boolean.Universe, depth int) []Expr {
	prefixes := allPrefixes(depth)
	var out []Expr
	for _, p := range prefixes {
		for m := boolean.Tuple(1); m <= u.All(); m++ {
			out = append(out, Expr{Prefix: p, Body: m, Head: query.NoHead})
		}
		for h := 0; h < u.N(); h++ {
			for _, m := range submasksOf(u.All().Without(h)) {
				out = append(out, Expr{Prefix: p, Body: m, Head: h})
			}
		}
	}
	return out
}

func allPrefixes(depth int) [][]query.Quantifier {
	if depth == 0 {
		return [][]query.Quantifier{{}}
	}
	var out [][]query.Quantifier
	for _, rest := range allPrefixes(depth - 1) {
		for _, q := range []query.Quantifier{query.Forall, query.Exists} {
			out = append(out, append([]query.Quantifier{q}, rest...))
		}
	}
	return out
}

func submasksOf(m boolean.Tuple) []boolean.Tuple {
	var out []boolean.Tuple
	s := boolean.Tuple(0)
	for {
		out = append(out, s)
		if s == m {
			return out
		}
		s = (s - m) & m
	}
}

// evalSignature fingerprints a query by its classification of every
// object.
func evalSignature(q Query, objects []Object) string {
	b := make([]byte, len(objects))
	for i, o := range objects {
		if q.Eval(o) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// EliminationLearn identifies a target query from the class by asking
// membership questions from the object pool, eliminating inconsistent
// candidates exactly like internal/brute does for flat queries. It
// returns the number of questions asked and the surviving query.
func EliminationLearn(class []Query, target Query, pool []Object) (Query, int) {
	remaining := append([]Query{}, class...)
	questions := 0
	for _, obj := range pool {
		if len(remaining) <= 1 {
			break
		}
		var yes, no int
		for _, q := range remaining {
			if q.Eval(obj) {
				yes++
			} else {
				no++
			}
		}
		if yes == 0 || no == 0 {
			continue
		}
		questions++
		answer := target.Eval(obj)
		next := remaining[:0]
		for _, q := range remaining {
			if q.Eval(obj) == answer {
				next = append(next, q)
			}
		}
		remaining = next
	}
	return remaining[0], questions
}
