// Package dataplay is the application layer the paper's introduction
// describes: a DataPlay-style system that holds the user's
// propositions and a dataset, turns the Boolean-domain algorithms
// into conversations about concrete data objects, and carries a query
// through its whole lifecycle — learn it from examples, verify it,
// revise it when the user's intent drifts, and execute it.
//
// Everything below is a thin orchestration over the other packages:
// questions prefer real tuples from the indexed dataset (§5), the
// interaction history supports §5's response amendment, verification
// and revision are §4 and §6, and results come back as data objects.
package dataplay

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/nested"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

// Class selects the query class to learn. It is the run engine's
// Algorithm, so a System.Learn call composes directly with engine
// options.
type Class = run.Algorithm

// The two exactly-learnable classes.
const (
	// Qhorn1 learns with O(n lg n) questions but forbids variable
	// repetition (§3.1).
	Qhorn1 = run.Qhorn1
	// RolePreserving allows repetition with preserved roles and
	// learns with O(n^(θ+1) + k·n·lg n) questions (§3.2).
	RolePreserving = run.RolePreserving
)

// User classifies concrete data objects, the way a person would.
// Adapters turn it into the Boolean-domain oracle the algorithms use.
type User interface {
	// Classify reports whether the object is an answer to the user's
	// intended query.
	Classify(o nested.Object) bool
}

// UserFunc adapts a function to the User interface.
type UserFunc func(nested.Object) bool

// Classify implements User.
func (f UserFunc) Classify(o nested.Object) bool { return f(o) }

// SimulatedUser returns a user whose intent is the given query,
// evaluated over the system's propositions.
func SimulatedUser(ps nested.Propositions, intended query.Query) User {
	c := query.Compile(intended)
	return UserFunc(func(o nested.Object) bool {
		return c.Eval(ps.AbstractObject(o))
	})
}

// System holds the propositions, the (indexed) dataset and the
// interaction history of one query-specification session.
type System struct {
	ps    nested.Propositions
	index *nested.Index
	// Questions counts the objects shown to the user so far.
	Questions int

	sess        *session.Session
	currentUser User
}

// New builds a system over the propositions and dataset. The dataset
// may be empty; questions are then fully synthesized.
func New(ps nested.Propositions, d nested.Dataset) (*System, error) {
	if len(ps.Props) == 0 {
		return nil, fmt.Errorf("dataplay: no propositions")
	}
	if inter := ps.Interferences(); len(inter) > 0 {
		return nil, fmt.Errorf("dataplay: propositions %d and %d interfere; the Boolean abstraction requires independent propositions (§2)",
			inter[0][0]+1, inter[0][1]+1)
	}
	ix, err := nested.NewIndex(ps, d)
	if err != nil {
		return nil, err
	}
	return &System{ps: ps, index: ix}, nil
}

// Universe returns the Boolean universe of the propositions.
func (s *System) Universe() boolean.Universe { return s.ps.Universe() }

// oracleFor wraps a data-domain user as a Boolean oracle that renders
// each question with real tuples where the dataset has them, behind
// the amendable session history. One session spans the whole system
// lifetime so answers replay across Learn/Verify/Revise calls; the
// caller is responsible for keeping the user's intent stable within a
// system (start a fresh System for a new intent).
func (s *System) oracleFor(u User) oracle.Oracle {
	s.currentUser = u
	if s.sess == nil {
		inner := oracle.Func(func(q boolean.Set) bool {
			s.Questions++
			obj, err := s.index.Select(fmt.Sprintf("sample #%d", s.Questions), q)
			if err != nil {
				// Unsatisfiable Boolean class: impossible here because
				// New rejects interfering propositions.
				panic(err)
			}
			return s.currentUser.Classify(obj)
		})
		s.sess = session.New(inner)
	}
	return s.sess
}

// Learn runs the chosen learner against the user and returns the
// exact query. Additional engine options compose onto the run, such as
// run.WithBatch for the batch question structure; the amendable
// history answers one batch at a time from one goroutine.
func (s *System) Learn(class Class, u User, opts ...run.Option) (query.Query, error) {
	switch class {
	case Qhorn1, RolePreserving:
	default:
		return query.Query{}, fmt.Errorf("dataplay: unknown class %d", int(class))
	}
	all := append([]run.Option{run.WithAlgorithm(class)}, opts...)
	q, _ := learn.Run(s.Universe(), s.oracleFor(u), all...)
	return q, nil
}

// VerifyQuery runs the §4 verification set against the user.
func (s *System) VerifyQuery(q query.Query, u User) (verify.Result, error) {
	return verify.Run(q, s.oracleFor(u))
}

// ReviseQuery corrects a nearly-right query against the user (§6).
func (s *System) ReviseQuery(q query.Query, u User) (revise.Result, error) {
	return revise.Revise(q, s.oracleFor(u))
}

// Execute runs the query over the system's dataset.
func (s *System) Execute(q query.Query) ([]nested.Object, error) {
	return s.index.Execute(q)
}

// SQL renders the query over the system's schema.
func (s *System) SQL(q query.Query) (string, error) {
	return nested.SQL(q, s.ps)
}

// Review returns the history indices whose recorded answers the user
// now disagrees with, by re-asking her about each recorded object —
// the §5 "double-check your responses" pass. Amend the returned
// indices (or call AmendReview) and re-run Learn to recover.
func (s *System) Review(u User) ([]int, error) {
	if s.sess == nil {
		return nil, fmt.Errorf("dataplay: no session yet")
	}
	var reviewErr error
	bad := s.sess.InconsistentWith(func(q boolean.Set) bool {
		obj, err := s.index.Select("review", q)
		if err != nil {
			reviewErr = err
			return false
		}
		return u.Classify(obj)
	})
	if reviewErr != nil {
		return nil, reviewErr
	}
	return bad, nil
}

// AmendReview runs Review and amends every disagreement in one step,
// returning how many entries were corrected.
func (s *System) AmendReview(u User) (int, error) {
	bad, err := s.Review(u)
	if err != nil {
		return 0, err
	}
	if len(bad) == 0 {
		return 0, nil
	}
	return len(bad), s.sess.AmendAll(bad)
}
