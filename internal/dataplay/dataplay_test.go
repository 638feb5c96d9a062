package dataplay

import (
	"math/rand"
	"strings"
	"testing"

	"qhorn/internal/nested"
	"qhorn/internal/query"
)

func newChocolateSystem(t *testing.T) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	s, err := New(nested.ChocolatePropositions(), nested.RandomChocolates(rng, 200, 5))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLifecycleLearnVerifyExecute(t *testing.T) {
	s := newChocolateSystem(t)
	u := s.Universe()
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	user := SimulatedUser(nested.ChocolatePropositions(), intended)

	learned, err := s.Learn(Qhorn1, user)
	if err != nil {
		t.Fatal(err)
	}
	if !learned.Equivalent(intended) {
		t.Fatalf("learned %s", learned)
	}
	if s.Questions == 0 || s.sess.Len() == 0 {
		t.Fatal("no interaction recorded")
	}

	res, err := s.VerifyQuery(learned, user)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("verification failed: %+v", res.Disagreements)
	}

	matches, err := s.Execute(learned)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Execute(intended)
	if err != nil || len(matches) != len(direct) {
		t.Fatalf("execution mismatch: %d vs %d (%v)", len(matches), len(direct), err)
	}

	sql, err := s.SQL(learned)
	if err != nil || !strings.Contains(sql, "SELECT") {
		t.Fatalf("SQL: %v\n%s", err, sql)
	}
}

func TestLifecycleRevise(t *testing.T) {
	s := newChocolateSystem(t)
	u := s.Universe()
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	user := SimulatedUser(nested.ChocolatePropositions(), intended)
	almost := query.MustParse(u, "∀x1 ∃x2")
	res, err := s.ReviseQuery(almost, user)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Revised.Equivalent(intended) {
		t.Fatalf("revised to %s", res.Revised)
	}
}

func TestAmendmentFlow(t *testing.T) {
	s := newChocolateSystem(t)
	u := s.Universe()
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	honest := SimulatedUser(nested.ChocolatePropositions(), intended)

	// A user who misclassifies the third box shown.
	shown := 0
	liar := UserFunc(func(o nested.Object) bool {
		shown++
		v := honest.Classify(o)
		if shown == 3 {
			return !v
		}
		return v
	})
	first, err := s.Learn(Qhorn1, liar)
	if err != nil {
		t.Fatal(err)
	}
	if first.Equivalent(intended) {
		t.Skip("lie was harmless")
	}
	// Review the history against the honest classification, flip the
	// bad answers, re-learn with the same session.
	if n, err := s.AmendReview(honest); err != nil || n == 0 {
		t.Fatalf("AmendReview = %d, %v", n, err)
	}
	again, err := s.Learn(Qhorn1, liar)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equivalent(intended) {
		t.Fatalf("after amendment: %s", again)
	}
}

func TestNewRejectsInterference(t *testing.T) {
	ps := nested.Propositions{
		Schema: nested.ChocolateSchema(),
		Props: []nested.Proposition{
			{Name: "m", Attr: "origin", Op: nested.Eq, Val: nested.S("Madagascar")},
			{Name: "b", Attr: "origin", Op: nested.Eq, Val: nested.S("Belgium")},
		},
	}
	if _, err := New(ps, nested.Fig1Dataset()); err == nil {
		t.Fatal("interfering propositions accepted")
	}
	if _, err := New(nested.Propositions{Schema: nested.ChocolateSchema()}, nested.Dataset{Schema: nested.ChocolateSchema()}); err == nil {
		t.Fatal("empty proposition set accepted")
	}
}

func TestUnknownClass(t *testing.T) {
	s := newChocolateSystem(t)
	user := SimulatedUser(nested.ChocolatePropositions(), query.MustParse(s.Universe(), "∃x1"))
	if _, err := s.Learn(Class(99), user); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestRolePreservingClass(t *testing.T) {
	s := newChocolateSystem(t)
	u := s.Universe()
	// ∃x2x3 alone is outside qhorn-1 (x1 uncovered) but fine for the
	// role-preserving learner.
	intended := query.MustParse(u, "∃x2x3")
	user := SimulatedUser(nested.ChocolatePropositions(), intended)
	learned, err := s.Learn(RolePreserving, user)
	if err != nil {
		t.Fatal(err)
	}
	if !learned.Equivalent(intended) {
		t.Fatalf("learned %s", learned)
	}
}

func TestReviewAndAmendReview(t *testing.T) {
	s := newChocolateSystem(t)
	u := s.Universe()
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	honest := SimulatedUser(nested.ChocolatePropositions(), intended)
	shown := 0
	liar := UserFunc(func(o nested.Object) bool {
		shown++
		v := honest.Classify(o)
		if shown == 3 {
			return !v
		}
		return v
	})
	first, err := s.Learn(Qhorn1, liar)
	if err != nil {
		t.Fatal(err)
	}
	if first.Equivalent(intended) {
		t.Skip("lie harmless")
	}
	fixedCount, err := s.AmendReview(honest)
	if err != nil {
		t.Fatal(err)
	}
	if fixedCount == 0 {
		t.Fatal("review found nothing to fix")
	}
	again, err := s.Learn(Qhorn1, UserFunc(honest.Classify))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equivalent(intended) {
		t.Fatalf("after AmendReview learned %s", again)
	}
	// A clean session reviews clean.
	if n, err := s.AmendReview(honest); err != nil || n != 0 {
		t.Fatalf("clean review: %d, %v", n, err)
	}
}

func TestReviewBeforeSession(t *testing.T) {
	s := newChocolateSystem(t)
	if _, err := s.Review(SimulatedUser(nested.ChocolatePropositions(), query.MustParse(s.Universe(), "∃x1"))); err == nil {
		t.Fatal("review before any session succeeded")
	}
}
