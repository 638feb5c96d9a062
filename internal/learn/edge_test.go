package learn

import (
	"math"
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// Edge-case structures that stress specific paths of the learners.

func TestRPClosureChains(t *testing.T) {
	// Cascading closures: x1 forces x5 forces nothing; x2x5... heads
	// never feed other bodies (role preservation), but conjunction
	// closures can involve several heads at once.
	u := boolean.MustUniverse(6)
	targets := []string{
		"∀x1 → x5 ∀x1 → x6 ∃x1x2",        // one body, two heads
		"∀x1 → x5 ∀x2 → x6 ∃x1x2",        // conjunction closing over two heads
		"∀x1 → x5 ∀x2 → x5 ∀x3 → x5 ∃x4", // θ = 3 singleton bodies
		"∀x1x2x3x4 → x5 ∃x6",             // one maximal body
		"∀x1 ∀x2 ∀x3 ∀x4 ∀x5 ∀x6",        // all bodyless heads
	}
	for _, s := range targets {
		target := query.MustParse(u, s)
		learned, _ := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
		if !learned.Equivalent(target) {
			t.Errorf("target %s learned as %s", target, learned)
		}
	}
}

func TestRPDeepConjunction(t *testing.T) {
	// A conjunction at the bottom levels of the lattice: singleton
	// conjunctions force the descent down n−1 levels.
	u := boolean.MustUniverse(8)
	target := query.MustParse(u, "∃x1 ∃x2 ∃x3")
	learned, stats := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
	if stats.ExistentialQuestions == 0 {
		t.Fatal("no existential questions counted")
	}
}

func TestRPConjunctionEqualsGuarantee(t *testing.T) {
	// The target's only conjunction IS a guarantee clause: the seeded
	// optimization should handle it without extra descent.
	u := boolean.MustUniverse(5)
	target := query.MustParse(u, "∀x1x2 → x3")
	learned, _ := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
	// The normal form carries exactly the guarantee conjunction.
	conjs := learned.DominantConjunctions()
	if len(conjs) != 1 || conjs[0] != boolean.FromVars(0, 1, 2) {
		t.Fatalf("conjunctions = %v", conjs)
	}
}

func TestRPOverlappingBodiesAcrossHeads(t *testing.T) {
	// Bodies may overlap across heads (only per-head dominance
	// matters).
	u := boolean.MustUniverse(8)
	target := query.MustParse(u, "∀x1x2 → x7 ∀x2x3 → x8 ∀x1x3 → x7 ∃x4x5x6")
	learned, _ := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
}

func TestRPThetaFour(t *testing.T) {
	u := boolean.MustUniverse(9)
	target := query.MustParse(u, "∀x1x2 → x9 ∀x3x4 → x9 ∀x5x6 → x9 ∀x7x8 → x9")
	learned, stats := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(target) {
		t.Fatalf("θ=4 target learned as %s", learned)
	}
	if got := learned.CausalDensity(); got != 4 {
		t.Fatalf("learned θ = %d", got)
	}
	t.Logf("θ=4 universal questions: %d", stats.BodyQuestions)
}

func TestQhorn1BigSharedBody(t *testing.T) {
	// One body of 10 variables shared by 6 heads: the per-extra-head
	// cost must stay logarithmic (Lemma 3.2).
	u := boolean.MustUniverse(16)
	target := query.MustParse(u,
		"∀x1x2x3x4x5x6x7x8x9x10 → x11 ∀x1x2x3x4x5x6x7x8x9x10 → x12 "+
			"∃x1x2x3x4x5x6x7x8x9x10 → x13 ∃x1x2x3x4x5x6x7x8x9x10 → x14 "+
			"∀x1x2x3x4x5x6x7x8x9x10 → x15 ∃x1x2x3x4x5x6x7x8x9x10 → x16")
	c := oracle.Count(oracle.Target(target), nil)
	learned, _ := Run(u, c)
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
	// 16 head questions + first body O(10 lg 16) + 5 extra heads at
	// O(lg 16) each: comfortably under 16 + 10*5 + 5*5*2 = 116.
	if c.Questions > 140 {
		t.Errorf("shared-body learning took %d questions", c.Questions)
	}
}

func TestQhorn1AllPairsPartition(t *testing.T) {
	// n/2 parts of exactly two variables: the maximum number of
	// expressions for the existential phase.
	u := boolean.MustUniverse(12)
	target := query.MustParse(u,
		"∃x1 → x2 ∃x3 → x4 ∃x5 → x6 ∃x7 → x8 ∃x9 → x10 ∃x11 → x12")
	learned, _ := Run(u, oracle.Target(target))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
}

func TestQhorn1ManyHeadsOneBody(t *testing.T) {
	// GetHead must find a head pair among many existential heads.
	u := boolean.MustUniverse(10)
	target := query.MustParse(u,
		"∃x1x2 → x3 ∃x1x2 → x4 ∃x1x2 → x5 ∃x1x2 → x6 ∃x1x2 → x7 ∃x8 ∃x9 ∃x10")
	learned, _ := Run(u, oracle.Target(target))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
}

func TestLearnersLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale round trips")
	}
	rng := rand.New(rand.NewSource(131))
	// qhorn-1 at n = 64 (the bitset limit).
	target := query.GenQhorn1Sized(rng, 64, 4)
	learned, stats := Run(target.U, oracle.Target(target))
	if !learned.Equivalent(target) {
		t.Fatal("n=64 qhorn-1 round trip failed")
	}
	t.Logf("n=64 qhorn-1: %d questions", stats.Total())
	// Role-preserving at n = 24.
	rp := query.GenRolePreserving(rng, 24, query.RPOptions{
		Heads: 4, BodiesPerHead: 2, MaxBodySize: 4, Conjs: 6, MaxConjSize: 8,
	})
	learnedRP, rpStats := Run(rp.U, oracle.Target(rp), run.WithAlgorithm(run.RolePreserving))
	if !learnedRP.Equivalent(rp) {
		t.Fatal("n=24 role-preserving round trip failed")
	}
	t.Logf("n=24 role-preserving: %d questions", rpStats.Total())
}

// TestLearnersIgnoreDuplicateExpressions: syntactic duplicates in the
// target change nothing.
func TestLearnersIgnoreDuplicateExpressions(t *testing.T) {
	u := boolean.MustUniverse(4)
	dup := query.MustNew(u,
		query.UniversalHorn(boolean.FromVars(0), 2),
		query.UniversalHorn(boolean.FromVars(0), 2),
		query.Conjunction(boolean.FromVars(1, 3)),
		query.Conjunction(boolean.FromVars(1, 3)),
	)
	learned, _ := Run(u, oracle.Target(dup), run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(dup) {
		t.Fatalf("learned %s", learned)
	}
}

// TestSubLearnerAPI exercises the exported revision entry points.
func TestSubLearnerAPI(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∃x2x3")
	o := oracle.Target(target)
	heads := ClassifyHeads(u, o)
	if heads != boolean.FromVars(4) {
		t.Fatalf("heads = %v", heads)
	}
	bodies := LearnBodies(u, o, 4, heads)
	if len(bodies) != 2 {
		t.Fatalf("bodies = %v", bodies)
	}
	var universals []query.Expr
	for _, b := range bodies {
		universals = append(universals, query.UniversalHorn(b, 4))
	}
	conjs := LearnConjunctions(u, o, universals)
	rebuilt := query.Query{U: u, Exprs: universals}
	for _, c := range conjs {
		rebuilt.Exprs = append(rebuilt.Exprs, query.Conjunction(c))
	}
	if !rebuilt.Normalize().Equivalent(target) {
		t.Fatalf("rebuilt %s", rebuilt.Normalize())
	}
}

// TestBudgetEnforcesTheoremBound mechanically re-checks Theorem 3.1:
// the qhorn-1 learner must finish inside a 6·n·lg n + 6n question
// budget; the budget oracle panics otherwise.
func TestBudgetEnforcesTheoremBound(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	for i := 0; i < 20; i++ {
		n := 4 + rng.Intn(28)
		target := query.GenQhorn1Sized(rng, n, 4)
		limit := int(6*float64(n)*math.Log2(float64(n))) + 6*n
		b := oracle.WithBudget(oracle.Target(target), limit, nil)
		learned, _ := Run(target.U, b)
		if !learned.Equivalent(target) {
			t.Fatalf("target %s learned as %s", target, learned)
		}
	}
}
