// Package brute implements a brute-force elimination learner: it
// maintains an explicit candidate set of queries and asks membership
// questions until a single semantic equivalence class remains. It is
// the reference implementation used to cross-validate the polynomial
// learners on small universes and to measure the paper's lower bounds
// (Theorem 2.1, Lemma 3.4, Theorem 3.6), where each question can
// eliminate only one candidate.
package brute

import (
	"errors"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// ErrAmbiguous is returned when the question pool is exhausted but
// more than one semantically distinct candidate remains.
var ErrAmbiguous = errors.New("brute: question pool exhausted with multiple candidates")

// ErrNoCandidates is returned when Learn is called with an empty
// candidate set.
var ErrNoCandidates = errors.New("brute: empty candidate set")

// Result reports the outcome of a brute-force learning run.
type Result struct {
	// Learned is a remaining candidate (the unique one on success).
	Learned query.Query
	// Questions is the number of membership questions asked.
	Questions int
	// Remaining is the number of candidates consistent with all
	// responses when learning stopped.
	Remaining int
}

// Learn eliminates candidates with questions from pool until all
// remaining candidates are semantically equivalent. It only asks
// informative questions — those on which the remaining candidates
// disagree — so the question count is exactly the paper's measure.
// Because every asked question splits the remaining candidates, at
// least one candidate always survives; if the oracle is not backed by
// a query in the class, the survivor is simply wrong
// (garbage-in-garbage-out, as for any exact learner).
//
// Learn runs on the bitset answer matrix (see Matrix); it asks exactly
// the questions LearnSerial asks, in the same order. Callers running
// several experiments over one candidate set should build the Matrix
// once and call its Learn method directly.
func Learn(candidates []query.Query, o oracle.Oracle, pool []boolean.Set) (Result, error) {
	if len(candidates) == 0 {
		return Result{}, ErrNoCandidates
	}
	return NewMatrix(candidates, pool, nil).Learn(o)
}

// LearnSerial is the direct-evaluation reference implementation of
// Learn: it re-evaluates every remaining candidate on every pool
// question per step. The matrix path is pinned bit-identical to it in
// tests and in the brute experiment (E27), and BenchmarkBruteLearnSerial
// prices it against the matrix.
func LearnSerial(candidates []query.Query, o oracle.Oracle, pool []boolean.Set) (Result, error) {
	if len(candidates) == 0 {
		return Result{}, ErrNoCandidates
	}
	remaining := append([]query.Query{}, candidates...)
	res := Result{}
	for _, question := range pool {
		if allEquivalent(remaining) {
			break
		}
		var yes, no int
		for _, q := range remaining {
			if q.Eval(question) {
				yes++
			} else {
				no++
			}
		}
		if yes == 0 || no == 0 {
			continue // uninformative
		}
		res.Questions++
		keepAnswer := o.Ask(question)
		next := remaining[:0]
		for _, q := range remaining {
			if q.Eval(question) == keepAnswer {
				next = append(next, q)
			}
		}
		remaining = next
	}
	res.Remaining = len(remaining)
	res.Learned = remaining[0]
	if !allEquivalent(remaining) {
		return res, ErrAmbiguous
	}
	return res, nil
}

func allEquivalent(qs []query.Query) bool {
	for i := 1; i < len(qs); i++ {
		if !qs[0].Equivalent(qs[i]) {
			return false
		}
	}
	return true
}
