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

func learnQhorn1Target(t *testing.T, target query.Query) (query.Query, run.Stats) {
	t.Helper()
	learned, stats := Run(target.U, oracle.Target(target))
	if !learned.Equivalent(target) {
		t.Fatalf("target %s learned as %s", target, learned)
	}
	return learned, stats
}

func TestQhorn1LearnsFixedQueries(t *testing.T) {
	u6 := boolean.MustUniverse(6)
	u7 := boolean.MustUniverse(7)
	targets := []query.Query{
		// Fig 2's qhorn-1 query.
		query.MustParse(u6, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6"),
		// The §2.1.3 partition query.
		query.MustParse(u7, "∀x1 ∀x2 ∃x3 → x4 ∃x5x6 → x7"),
		// All-universal.
		query.MustParse(u6, "∀x1 ∀x2 ∀x3 ∀x4 ∀x5 ∀x6"),
		// All-existential singletons.
		query.MustParse(u6, "∃x1 ∃x2 ∃x3 ∃x4 ∃x5 ∃x6"),
		// One big body with several heads.
		query.MustParse(u7, "∀x1x2x3 → x4 ∃x1x2x3 → x5 ∀x1x2x3 → x6 ∃x1x2x3 → x7"),
		// Universal heads sharing one body.
		query.MustParse(u6, "∀x1x2 → x3 ∀x1x2 → x4 ∀x1x2 → x5 ∃x6"),
	}
	for _, target := range targets {
		learnQhorn1Target(t, target)
	}
}

func TestQhorn1LearnsSingleVariable(t *testing.T) {
	u := boolean.MustUniverse(1)
	for _, s := range []string{"∀x1", "∃x1"} {
		learnQhorn1Target(t, query.MustParse(u, s))
	}
}

func TestQhorn1RoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(16)
		target := query.GenQhorn1(rng, n)
		learnQhorn1Target(t, target)
	}
}

func TestQhorn1RoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		target := query.GenQhorn1(rng, 40)
		learnQhorn1Target(t, target)
	}
}

// TestQhorn1QuestionBound checks Theorem 3.1 empirically: the total
// number of questions stays within a small constant of n lg n.
func TestQhorn1QuestionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 16, 32, 64} {
		worst := 0
		for i := 0; i < 20; i++ {
			target := query.GenQhorn1(rng, n)
			_, stats := learnQhorn1Target(t, target)
			if q := stats.Total(); q > worst {
				worst = q
			}
		}
		bound := int(6*float64(n)*math.Log2(float64(n))) + 6*n
		if worst > bound {
			t.Errorf("n=%d: worst question count %d exceeds 6·n·lg n + 6n = %d", n, worst, bound)
		}
	}
}

// TestQhorn1HeadPhaseExact: classifying heads takes exactly n
// questions (§3.1.1).
func TestQhorn1HeadPhaseExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(20)
		target := query.GenQhorn1(rng, n)
		_, stats := learnQhorn1Target(t, target)
		if stats.HeadQuestions != n {
			t.Fatalf("head questions = %d, want n = %d", stats.HeadQuestions, n)
		}
	}
}

// TestQhorn1QuestionsHaveConstantTuples: every question of the
// qhorn-1 learner has at most max(2, |D|) tuples; the head/body
// phases use exactly two tuples (§3.1).
func TestQhorn1QuestionsHaveFewTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 30; i++ {
		n := 2 + rng.Intn(14)
		target := query.GenQhorn1(rng, n)
		c := oracle.Count(oracle.Target(target), nil)
		learned, _ := Run(target.U, c)
		if !learned.Equivalent(target) {
			t.Fatalf("target %s learned as %s", target, learned)
		}
		if c.MaxTuples > n {
			t.Fatalf("question with %d tuples for n=%d", c.MaxTuples, n)
		}
	}
}

// TestQhorn1AgainstBruteForce cross-validates the learner against
// explicit elimination over the full qhorn-1 class on 3 variables.
func TestQhorn1AgainstBruteForce(t *testing.T) {
	u := boolean.MustUniverse(3)
	targets := enumerateQhorn1(u)
	if len(targets) < 20 {
		t.Fatalf("enumeration too small: %d", len(targets))
	}
	for _, target := range targets {
		learnQhorn1Target(t, target)
	}
}

// enumerateQhorn1 lists all qhorn-1 queries on a tiny universe by
// enumerating set partitions and role/quantifier assignments.
func enumerateQhorn1(u boolean.Universe) []query.Query {
	n := u.N()
	var out []query.Query
	seen := map[string]bool{}
	// Enumerate partitions via restricted growth strings.
	rgs := make([]int, n)
	var rec func(i, maxPart int)
	rec = func(i, maxPart int) {
		if i == n {
			parts := make([]boolean.Tuple, maxPart)
			for v, p := range rgs {
				parts[p] = parts[p].With(v)
			}
			emit(u, parts, nil, &out, seen)
			return
		}
		for p := 0; p <= maxPart; p++ {
			rgs[i] = p
			next := maxPart
			if p == maxPart {
				next++
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
	return out
}

// emit enumerates, for a partition, every choice of body/head split
// and quantifier per head, appending the distinct queries.
func emit(u boolean.Universe, parts []boolean.Tuple, acc []query.Expr, out *[]query.Query, seen map[string]bool) {
	if len(parts) == 0 {
		q := query.Query{U: u, Exprs: append([]query.Expr{}, acc...)}
		if !q.IsQhorn1() {
			return
		}
		key := q.Normalize().String()
		if !seen[key] {
			seen[key] = true
			*out = append(*out, q)
		}
		return
	}
	part := parts[0]
	rest := parts[1:]
	vars := part.Vars()
	if len(vars) == 1 {
		for _, e := range []query.Expr{query.BodylessUniversal(vars[0]), query.ExistentialHorn(0, vars[0])} {
			emit(u, rest, append(acc, e), out, seen)
		}
		return
	}
	// Choose a non-empty proper subset as the body; the rest are
	// heads, each universally or existentially quantified.
	for bm := 1; bm < 1<<uint(len(vars)); bm++ {
		var bodyT boolean.Tuple
		var heads []int
		for i, v := range vars {
			if bm&(1<<uint(i)) != 0 {
				bodyT = bodyT.With(v)
			} else {
				heads = append(heads, v)
			}
		}
		if len(heads) == 0 {
			continue
		}
		var assign func(i int, acc2 []query.Expr)
		assign = func(i int, acc2 []query.Expr) {
			if i == len(heads) {
				emit(u, rest, acc2, out, seen)
				return
			}
			assign(i+1, append(acc2, query.UniversalHorn(bodyT, heads[i])))
			assign(i+1, append(acc2, query.ExistentialHorn(bodyT, heads[i])))
		}
		assign(0, append([]query.Expr{}, acc...))
	}
}
