package revise

import (
	"math/rand"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

var u6 = boolean.MustUniverse(6)

func reviseTo(t *testing.T, given, intended query.Query) Result {
	t.Helper()
	res, err := Revise(given, oracle.Target(intended))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Revised.Equivalent(intended) {
		t.Fatalf("given %s, intended %s: revised to %s", given, intended, res.Revised)
	}
	return res
}

func TestReviseCorrectQueryIsCheap(t *testing.T) {
	q := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3")
	res := reviseTo(t, q, q)
	if res.RepairQuestions != 0 || res.Escalated {
		t.Fatalf("correct query repaired: %+v", res)
	}
	if res.VerificationQuestions > 3*q.Normalize().Size()+5 {
		t.Fatalf("verification cost %d not O(k)", res.VerificationQuestions)
	}
}

func TestReviseSingleEdits(t *testing.T) {
	base := "∀x1x4 → x5 ∀x1x2 → x6 ∃x2x3"
	edits := []string{
		"∀x3x4 → x5 ∀x1x2 → x6 ∃x2x3",            // body changed
		"∀x1x4 → x5 ∀x1x2 → x6 ∃x2x3 ∃x3x4",      // conjunction added
		"∀x1x4 → x5 ∀x1x2 → x6 ∃x2",              // conjunction shrunk
		"∀x1x4 → x5 ∀x1x2 → x6 ∀x3 ∃x2x3",        // head added
		"∀x1x2 → x6 ∃x2x3",                       // expression dropped
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x2x3", // body added (θ+1)
	}
	given := query.MustParse(u6, base)
	for _, e := range edits {
		intended := query.MustParse(u6, e)
		reviseTo(t, given, intended)
		// And the reverse direction.
		reviseTo(t, intended, given)
	}
}

func TestReviseRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	gen := func(n int) query.Query {
		return query.GenRolePreserving(rng, n, query.RPOptions{
			Heads:         rng.Intn(n / 2),
			BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize:   1 + rng.Intn(3),
			Conjs:         rng.Intn(3),
			MaxConjSize:   1 + rng.Intn(n),
		})
	}
	for i := 0; i < 120; i++ {
		n := 4 + rng.Intn(7)
		_ = n
		given, intended := gen(n), gen(n)
		reviseTo(t, given, intended)
	}
}

// TestReviseExhaustiveTwoVars revises every ordered pair of
// two-variable role-preserving queries.
func TestReviseExhaustiveTwoVars(t *testing.T) {
	u := boolean.MustUniverse(2)
	queries := query.AllQueries(u)
	for _, given := range queries {
		for _, intended := range queries {
			reviseTo(t, given, intended)
		}
	}
}

// TestReviseCheaperThanLearningWhenClose: a single-edit revision asks
// fewer questions than learning the intended query from scratch.
func TestReviseCheaperThanLearningWhenClose(t *testing.T) {
	u := boolean.MustUniverse(10)
	given := query.MustParse(u, "∀x1x2 → x9 ∀x3x4 → x10 ∃x5x6 ∃x7x8")
	intended := query.MustParse(u, "∀x1x2 → x9 ∀x3x4 → x10 ∃x5x6 ∃x7x8 ∃x5x7")

	res := reviseTo(t, given, intended)

	c := oracle.Count(oracle.Target(intended), nil)
	learn.Run(u, c, run.WithAlgorithm(run.RolePreserving))
	if res.Questions() >= c.Questions {
		t.Errorf("revision cost %d not below learning cost %d", res.Questions(), c.Questions)
	}
	if res.Escalated {
		t.Error("single conjunction edit escalated to full learning")
	}
}

func TestReviseRejectsNonRolePreserving(t *testing.T) {
	bad := query.MustParse(u6, "∀x1x4 → x5 ∀x2x3x5 → x6")
	if _, err := Revise(bad, oracle.Target(bad)); err == nil {
		t.Fatal("non-role-preserving query accepted")
	}
}

func TestDistance(t *testing.T) {
	a := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3")
	if Distance(a, a) != 0 {
		t.Error("self-distance nonzero")
	}
	// Equivalent queries are at distance 0 even with different syntax.
	b := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3 ∃x1x4x5")
	if got := Distance(a, b); got != 0 {
		t.Errorf("equivalent distance = %d", got)
	}
	// One changed conjunction moves two tuples (one out, one in).
	c := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3x4")
	if got := Distance(a, c); got != 2 {
		t.Errorf("conjunction edit distance = %d, want 2", got)
	}
	// One added universal expression moves its distinguishing tuple
	// and possibly the conjunction closures.
	d := query.MustParse(u6, "∀x1x4 → x5 ∀x2 → x6 ∃x2x3")
	if Distance(a, d) == 0 {
		t.Error("added universal not reflected in distance")
	}
	if Distance(a, d) != Distance(d, a) {
		t.Error("distance not symmetric")
	}
}

// TestDistanceCorrelatesWithEquivalence: distance 0 iff equivalent,
// over all two-variable pairs.
func TestDistanceCorrelatesWithEquivalence(t *testing.T) {
	u := boolean.MustUniverse(2)
	queries := query.AllQueries(u)
	for _, a := range queries {
		for _, b := range queries {
			zero := Distance(a, b) == 0
			if zero != a.Equivalent(b) {
				t.Fatalf("Distance(%s, %s)=0 is %v but Equivalent=%v", a, b, zero, a.Equivalent(b))
			}
		}
	}
}

// TestReviseExhaustiveThreeVars revises every ordered pair of
// three-variable role-preserving queries (83 × 83 = 6889 revisions).
func TestReviseExhaustiveThreeVars(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive pair revision on 3 variables")
	}
	u := boolean.MustUniverse(3)
	queries := query.AllQueries(u)
	for _, given := range queries {
		for _, intended := range queries {
			reviseTo(t, given, intended)
		}
	}
}

func TestDiffAndExplain(t *testing.T) {
	a := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3")
	b := query.MustParse(u6, "∀x3x4 → x5 ∃x2x3 ∃x1x6")
	edits := Diff(a, b)
	if len(edits) != Distance(a, b) {
		t.Fatalf("|Diff| = %d, Distance = %d", len(edits), Distance(a, b))
	}
	var added, removed int
	for _, e := range edits {
		if e.Added {
			added++
		} else {
			removed++
		}
	}
	if added == 0 || removed == 0 {
		t.Fatalf("edits = %v", edits)
	}
	text := Explain(a, b)
	if !strings.Contains(text, "+") || !strings.Contains(text, "−") {
		t.Fatalf("Explain = %q", text)
	}
	if got := Explain(a, a); got != "(semantically identical)" {
		t.Fatalf("self-Explain = %q", got)
	}
	// Equivalent-but-syntactically-different queries have empty diff.
	c := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3 ∃x1x4x5")
	if len(Diff(a, c)) != 0 {
		t.Fatalf("equivalent diff = %v", Diff(a, c))
	}
}
