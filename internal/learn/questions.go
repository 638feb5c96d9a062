// Package learn implements the paper's two polynomial-question exact
// learning algorithms:
//
//   - Qhorn1 (§3.1): learns qhorn-1 queries with O(n lg n) membership
//     questions using universal-dependence questions, existential-
//     independence questions and independence-matrix questions
//     (Algorithms 1–5).
//   - RolePreserving (§3.2): learns role-preserving qhorn queries
//     with O(n^(θ+1)) questions for the universal Horn expressions
//     (Boolean-lattice body search, Algorithm 6 plus multi-root
//     search) and O(k·n·lg n) questions for the existential
//     conjunctions (lattice descent with pruning, Algorithms 7–8).
//
// Both learners are exact: against an oracle backed by a target query
// in the class, the learned query is semantically equivalent to the
// target. Question counts are exposed through per-phase statistics.
package learn

import (
	"qhorn/internal/boolean"
)

// Questions in this file are the Boolean-domain membership questions
// of §3.1, constructed over a universe u of n variables.

// HeadTestQuestion returns the question that decides whether variable
// x is a universal head variable (§3.1.1): the object {1^n, 1^n−x}.
// If the object is a non-answer, x is a universal head.
func HeadTestQuestion(u boolean.Universe, x int) boolean.Set {
	all := u.All()
	return boolean.NewSet(all.Without(x), all) // ascending: 1^n is the largest tuple
}

// UniversalDependenceQuestion returns the question of Definition 3.1
// on head h and variable set V: the object {1^n, t} where t has h and
// all of V false and every other variable true. If the object is an
// answer, h depends on some variable in V; if it is a non-answer, h
// has no body variable in V.
func UniversalDependenceQuestion(u boolean.Universe, h int, v boolean.Tuple) boolean.Set {
	all := u.All()
	return boolean.NewSet(all, all.Minus(v).Without(h))
}

// ExistentialIndependenceQuestion returns the question of
// Definition 3.2 on disjoint variable sets X and Y: the object
// {1^n−X, 1^n−Y}. If the object is an answer, X and Y are independent
// (no existential Horn expression relates them); if it is a
// non-answer, some variable of X depends on some variable of Y.
func ExistentialIndependenceQuestion(u boolean.Universe, x, y boolean.Tuple) boolean.Set {
	all := u.All()
	return boolean.NewSet(all.Minus(x), all.Minus(y))
}

// MatrixQuestion returns the independence-matrix question of
// Definition 3.3 on the variable set D: one tuple per variable d ∈ D
// with only d false. The question is an answer iff D contains at
// least two existential head variables (Lemma 3.3).
func MatrixQuestion(u boolean.Universe, d boolean.Tuple) boolean.Set {
	all := u.All()
	tuples := make([]boolean.Tuple, 0, d.Count())
	for _, v := range d.Vars() {
		tuples = append(tuples, all.Without(v))
	}
	return boolean.NewSet(tuples...)
}
