package oracle

import (
	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// Adversary is the worst-case user of the paper's lower-bound proofs.
// It maintains the set of candidate target queries still consistent
// with its past responses, and answers each membership question so as
// to keep as many candidates alive as possible (the halving
// adversary). For the structured classes of Theorem 2.1, Lemma 3.4
// and Theorem 3.6, each question eliminates at most one candidate, so
// the adversary forces the stated lower bounds.
type Adversary struct {
	candidates []query.Query
}

// NewAdversary returns an adversary over the given candidate class.
// The slice is not retained.
func NewAdversary(candidates []query.Query) *Adversary {
	return &Adversary{candidates: append([]query.Query{}, candidates...)}
}

// Ask implements Oracle: it answers with the classification shared by
// the majority of remaining candidates, then eliminates the
// minority. Ties go to non-answer, matching the proofs ("consider an
// adversary who always responds non-answer").
func (a *Adversary) Ask(s boolean.Set) bool {
	var yes, no []query.Query
	for _, q := range a.candidates {
		if q.Eval(s) {
			yes = append(yes, q)
		} else {
			no = append(no, q)
		}
	}
	if len(yes) > len(no) {
		a.candidates = yes
		return true
	}
	a.candidates = no
	return false
}

// Remaining returns the number of candidate queries still consistent
// with the adversary's responses.
func (a *Adversary) Remaining() int { return len(a.candidates) }

// AliasClass builds the query class φ = Uni(X) ∧ Alias(Y) of
// Theorem 2.1 on n variables: every subset Y of the variables yields
// one query in which the variables of Y form an alias (all true or
// all false together, expressed as a cycle of universal Horn
// expressions) and the remaining variables are universally quantified
// and bodyless. There are 2^n instances; learning the class requires
// Ω(2^n) membership questions.
//
// Note these queries repeat variables as both heads and bodies, so
// they are in qhorn but not in role-preserving qhorn — exactly the
// point of the theorem.
func AliasClass(u boolean.Universe) []query.Query {
	n := u.N()
	out := make([]query.Query, 0, 1<<uint(n))
	for m := 0; m < 1<<uint(n); m++ {
		y := boolean.Tuple(m)
		out = append(out, AliasQuery(u, y))
	}
	return out
}

// AliasQuery builds the Theorem 2.1 instance Uni(X) ∧ Alias(Y) where
// Y = aliasVars and X is the rest of the universe.
func AliasQuery(u boolean.Universe, aliasVars boolean.Tuple) query.Query {
	var exprs []query.Expr
	for _, x := range u.Complement(aliasVars).Vars() {
		exprs = append(exprs, query.BodylessUniversal(x))
	}
	ys := aliasVars.Vars()
	for i, y := range ys {
		next := ys[(i+1)%len(ys)]
		if len(ys) == 1 {
			// A one-variable alias imposes no constraint beyond the
			// guarantee; represent it as ∃y so the 2^n instances stay
			// distinct.
			exprs = append(exprs, query.Conjunction(boolean.FromVars(y)))
			break
		}
		exprs = append(exprs, query.UniversalHorn(boolean.FromVars(y), next))
	}
	return query.MustNew(u, exprs...)
}

// AliasQuestions returns the only informative membership questions
// for the alias class (proof of Theorem 2.1): for each subset Y of
// variables, the object {1^n, tuple with exactly Y false}. Each such
// question satisfies exactly the instance whose alias is Y.
func AliasQuestions(u boolean.Universe) []boolean.Set {
	n := u.N()
	out := make([]boolean.Set, 0, 1<<uint(n))
	all := u.All()
	for m := 0; m < 1<<uint(n); m++ {
		y := boolean.Tuple(m)
		out = append(out, boolean.NewSet(all, all.Minus(y)))
	}
	return out
}

// HeadPairClass builds the query class of Lemma 3.4 on n variables:
// for each pair {i, j}, the query ∃C→xi ∃C→xj with C all other
// variables. Learning the class with questions of at most c tuples
// requires Ω(n²/c²) questions.
func HeadPairClass(u boolean.Universe) []query.Query {
	n := u.N()
	var out []query.Query
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := u.All().Without(i).Without(j)
			out = append(out, query.MustNew(u,
				query.ExistentialHorn(c, i),
				query.ExistentialHorn(c, j),
			))
		}
	}
	return out
}

// HeadPairQuestions enumerates the class-2 questions of the Lemma 3.4
// proof with exactly c tuples each: every question picks c distinct
// variables H and contains, for each x ∈ H, the tuple where only x is
// false. A question is an answer iff both head variables are in H.
// The enumeration walks combinations in lexicographic order.
func HeadPairQuestions(u boolean.Universe, c int) []boolean.Set {
	n := u.N()
	if c > n {
		c = n
	}
	var out []boolean.Set
	idx := make([]int, c)
	for i := range idx {
		idx[i] = i
	}
	all := u.All()
	for {
		tuples := make([]boolean.Tuple, c)
		for i, v := range idx {
			tuples[i] = all.Without(v)
		}
		out = append(out, boolean.NewSet(tuples...))
		// next combination
		i := c - 1
		for i >= 0 && idx[i] == n-c+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < c; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// BodyClass builds the query class of Theorem 3.6 for a head variable
// h: θ−1 disjoint bodies B1..B_{θ−1} of size n/(θ−1) each over the
// first n non-head variables, which are fixed across the class, plus
// a θ-th body Bθ that omits exactly one variable from each Bi. The
// class has (n/(θ−1))^(θ−1) instances, one per choice of omitted
// variables, and learning it requires Ω((n/θ)^(θ−1)) questions.
//
// The universe has n+1 variables; variable n is the head h. n must be
// divisible by θ−1 and θ must be at least 2.
func BodyClass(u boolean.Universe, theta int) []query.Query {
	n := u.N() - 1
	h := n
	if theta < 2 || n%(theta-1) != 0 {
		panic("oracle: BodyClass requires θ ≥ 2 and (n−1) divisible by θ−1")
	}
	size := n / (theta - 1)
	bodies := make([]boolean.Tuple, theta-1)
	for i := range bodies {
		for v := i * size; v < (i+1)*size; v++ {
			bodies[i] = bodies[i].With(v)
		}
	}
	base := make([]query.Expr, 0, theta)
	for _, b := range bodies {
		base = append(base, query.UniversalHorn(b, h))
	}
	// Enumerate one omitted variable per body.
	var out []query.Query
	var rec func(i int, omit boolean.Tuple)
	rec = func(i int, omit boolean.Tuple) {
		if i == len(bodies) {
			bTheta := boolean.AllTrue(n).Minus(omit)
			exprs := append(append([]query.Expr{}, base...), query.UniversalHorn(bTheta, h))
			out = append(out, query.MustNew(u, exprs...))
			return
		}
		for _, v := range bodies[i].Vars() {
			rec(i+1, omit.With(v))
		}
	}
	rec(0, 0)
	return out
}
