package brute

import (
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

func TestLearnIdentifiesTargetExhaustively(t *testing.T) {
	// Over all role-preserving queries on 2 variables, with the full
	// object space as the question pool, the brute learner must
	// recover every target exactly.
	u := boolean.MustUniverse(2)
	candidates := query.AllQueries(u)
	pool := boolean.AllObjects(u)
	for _, target := range candidates {
		res, err := Learn(candidates, oracle.Target(target), pool)
		if err != nil {
			t.Fatalf("target %s: %v", target, err)
		}
		if !res.Learned.Equivalent(target) {
			t.Fatalf("target %s learned as %s", target, res.Learned)
		}
	}
}

func TestLearnAliasClassNeedsExponentialQuestions(t *testing.T) {
	// Theorem 2.1 measured: against the adversary, the brute learner
	// on the alias class asks 2^n − 1 questions.
	for _, n := range []int{3, 4, 5} {
		u := boolean.MustUniverse(n)
		class := oracle.AliasClass(u)
		adv := oracle.NewAdversary(class)
		res, err := Learn(class, adv, oracle.AliasQuestions(u))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := 1<<uint(n) - 1
		if res.Questions != want {
			t.Errorf("n=%d: questions = %d, want %d", n, res.Questions, want)
		}
	}
}

func TestLearnEmptyCandidates(t *testing.T) {
	u := boolean.MustUniverse(2)
	pool := []boolean.Set{boolean.MustParseSet(u, "{10}")}
	if _, err := Learn(nil, oracle.Func(func(boolean.Set) bool { return false }), pool); err != ErrNoCandidates {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
}

func TestLearnAmbiguousPool(t *testing.T) {
	u := boolean.MustUniverse(2)
	candidates := []query.Query{
		query.MustParse(u, "∃x1"),
		query.MustParse(u, "∃x2"),
	}
	// A pool that cannot separate the candidates.
	pool := []boolean.Set{boolean.MustParseSet(u, "{11}")}
	if _, err := Learn(candidates, oracle.Target(candidates[0]), pool); err != ErrAmbiguous {
		t.Errorf("err = %v, want ErrAmbiguous", err)
	}
}

func TestLearnSkipsUninformativeQuestions(t *testing.T) {
	u := boolean.MustUniverse(2)
	candidates := []query.Query{
		query.MustParse(u, "∃x1"),
		query.MustParse(u, "∃x2"),
	}
	c := oracle.Count(oracle.Target(candidates[0]), nil)
	pool := []boolean.Set{
		boolean.MustParseSet(u, "{11}"), // both say answer: skipped
		boolean.NewSet(),                // both say non-answer: skipped
		boolean.MustParseSet(u, "{10}"), // informative
	}
	res, err := Learn(candidates, c, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions != 1 || c.Questions != 1 {
		t.Errorf("questions = %d (oracle %d), want 1", res.Questions, c.Questions)
	}
}

func TestLearnEquivalentCandidatesNoQuestions(t *testing.T) {
	u := boolean.MustUniverse(3)
	candidates := []query.Query{
		query.MustParse(u, "∃x1x2x3 ∃x1x2"),
		query.MustParse(u, "∃x1x2x3"),
	}
	c := oracle.Count(oracle.Target(candidates[0]), nil)
	res, err := Learn(candidates, c, boolean.AllObjects(u))
	if err != nil {
		t.Fatal(err)
	}
	if res.Questions != 0 {
		t.Errorf("asked %d questions for equivalent candidates", res.Questions)
	}
}
