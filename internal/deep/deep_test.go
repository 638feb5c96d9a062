package deep

import (
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

// TestDepth1MatchesFlatModel: lifting a flat qhorn query to depth 1
// preserves its semantics on every object, for all role-preserving
// queries on 2 variables.
func TestDepth1MatchesFlatModel(t *testing.T) {
	u := boolean.MustUniverse(2)
	for _, fq := range query.AllQueries(u) {
		dq := FromFlat(fq)
		if err := dq.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, s := range boolean.AllObjects(u) {
			if got, want := dq.Eval(FromFlatObject(s)), fq.Eval(s); got != want {
				t.Fatalf("query %s on %s: deep %v, flat %v", fq, s.Format(u), got, want)
			}
		}
	}
}

func TestEvalDepth2Semantics(t *testing.T) {
	u := boolean.MustUniverse(2)
	// ∀box ∃c (x1): every box on the shelf has a dark chocolate.
	q := Query{U: u, Depth: 2, Exprs: []Expr{{
		Prefix: []query.Quantifier{query.Forall, query.Exists},
		Body:   boolean.FromVars(0),
		Head:   query.NoHead,
	}}}
	dark := Leaf(u.MustParse("10"))
	milk := Leaf(u.MustParse("01"))
	goodShelf := Set(Set(dark), Set(dark, milk))
	badShelf := Set(Set(dark), Set(milk))
	if !q.Eval(goodShelf) {
		t.Error("good shelf rejected")
	}
	if q.Eval(badShelf) {
		t.Error("shelf with an all-milk box accepted")
	}
	// The empty shelf satisfies the ∀ constraint vacuously — the
	// conjunction has no guarantee requirement here because it is not
	// a Horn rule; it has an ∃ inside, which the empty box fails.
	if q.Eval(Set(Set())) {
		t.Error("shelf with an empty box accepted")
	}
	// ∃box ∀c (x1): some box is all-dark. Needs a guarantee? It is a
	// conjunction prefix, evaluated directly.
	q2 := Query{U: u, Depth: 2, Exprs: []Expr{{
		Prefix: []query.Quantifier{query.Exists, query.Forall},
		Body:   boolean.FromVars(0),
		Head:   query.NoHead,
	}}}
	if !q2.Eval(goodShelf) {
		t.Error("shelf with an all-dark box rejected")
	}
	if !q2.Eval(Set(Set(), Set(milk))) {
		// ∃box ∀c: the empty box satisfies ∀c vacuously — documented
		// behaviour for conjunction prefixes without Horn guarantees.
		t.Error("vacuous ∀ inside ∃ changed")
	}
}

func TestEvalHornGuaranteeAtDepth2(t *testing.T) {
	u := boolean.MustUniverse(2)
	// ∀∀(x1 → x2) with the generalized guarantee: some chain must
	// witness x1 ∧ x2.
	q := Query{U: u, Depth: 2, Exprs: []Expr{{
		Prefix: []query.Quantifier{query.Forall, query.Forall},
		Body:   boolean.FromVars(0),
		Head:   1,
	}}}
	both := Leaf(u.MustParse("11"))
	neither := Leaf(u.MustParse("00"))
	violating := Leaf(u.MustParse("10"))
	if !q.Eval(Set(Set(both), Set(neither))) {
		t.Error("consistent shelf rejected")
	}
	if q.Eval(Set(Set(violating))) {
		t.Error("violating chocolate accepted")
	}
	// Vacuous satisfaction without a witness is rejected by the
	// guarantee clause, as in the flat model.
	if q.Eval(Set(Set(neither))) {
		t.Error("guarantee clause not enforced at depth 2")
	}
}

func TestAllObjectsCounts(t *testing.T) {
	u1 := boolean.MustUniverse(1)
	if got := len(AllObjects(u1, 0)); got != 2 {
		t.Fatalf("depth 0: %d", got)
	}
	if got := len(AllObjects(u1, 1)); got != 4 {
		t.Fatalf("depth 1: %d", got)
	}
	if got := len(AllObjects(u1, 2)); got != 16 {
		t.Fatalf("depth 2: %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("explosive enumeration did not panic")
		}
	}()
	AllObjects(boolean.MustUniverse(3), 2)
}

func TestAllQueriesDistinct(t *testing.T) {
	u := boolean.MustUniverse(1)
	for depth := 1; depth <= 2; depth++ {
		queries := AllQueries(u, depth)
		objects := AllObjects(u, depth)
		sigs := map[string]bool{}
		for _, q := range queries {
			sig := evalSignature(q, objects)
			if sigs[sig] {
				t.Fatalf("depth %d: duplicate semantics for %s", depth, q)
			}
			sigs[sig] = true
		}
		t.Logf("depth %d: %d semantically distinct queries", depth, len(queries))
		if depth == 2 && len(queries) <= len(AllQueries(u, 1)) {
			t.Error("depth-2 class not larger than depth-1")
		}
	}
}

func TestEliminationLearnIdentifiesEveryTarget(t *testing.T) {
	u := boolean.MustUniverse(1)
	for depth := 1; depth <= 2; depth++ {
		class := AllQueries(u, depth)
		pool := AllObjects(u, depth)
		for _, target := range class {
			learned, questions := EliminationLearn(class, target, pool)
			if evalSignature(learned, pool) != evalSignature(target, pool) {
				t.Fatalf("depth %d: target %s learned as %s", depth, target, learned)
			}
			if questions == 0 && len(class) > 1 && evalSignature(target, pool) != evalSignature(class[0], pool) {
				// At least the distinguishing questions were needed.
				t.Logf("target %s identified without questions", target)
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	u := boolean.MustUniverse(2)
	bad := []Query{
		{U: u, Depth: 2, Exprs: []Expr{{Prefix: []query.Quantifier{query.Forall}, Body: 1, Head: query.NoHead}}},
		{U: u, Depth: 1, Exprs: []Expr{{Prefix: []query.Quantifier{query.Forall}, Body: boolean.FromVars(3), Head: query.NoHead}}},
		{U: u, Depth: 1, Exprs: []Expr{{Prefix: []query.Quantifier{query.Forall}, Body: boolean.FromVars(0), Head: 0}}},
		{U: u, Depth: 1, Exprs: []Expr{{Prefix: []query.Quantifier{query.Exists}, Head: query.NoHead}}},
		{U: u, Depth: 1, Exprs: []Expr{{Prefix: []query.Quantifier{query.Exists}, Head: 7}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestExprString(t *testing.T) {
	e := Expr{Prefix: []query.Quantifier{query.Forall, query.Exists}, Body: boolean.FromVars(0, 1), Head: 2}
	if got := e.String(); got != "∀∃(x1x2 → x3)" {
		t.Errorf("String = %q", got)
	}
	c := Expr{Prefix: []query.Quantifier{query.Exists}, Body: boolean.FromVars(0), Head: query.NoHead}
	if got := c.String(); got != "∃(x1)" {
		t.Errorf("String = %q", got)
	}
	if got := (Query{}).String(); got != "⊤" {
		t.Errorf("empty query = %q", got)
	}
}

func TestRandomDepthConsistency(t *testing.T) {
	// Depth-1 lifting agrees with flat semantics on random larger
	// universes too.
	rng := rand.New(rand.NewSource(111))
	for i := 0; i < 50; i++ {
		n := 3 + rng.Intn(4)
		u := boolean.MustUniverse(n)
		fq := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3,
		})
		dq := FromFlat(fq)
		for j := 0; j < 20; j++ {
			m := rng.Intn(4)
			tuples := make([]boolean.Tuple, m)
			for k := range tuples {
				tuples[k] = boolean.Tuple(rng.Int63()) & u.All()
			}
			s := boolean.NewSet(tuples...)
			if dq.Eval(FromFlatObject(s)) != fq.Eval(s) {
				t.Fatalf("depth-1 mismatch on %s for %s", s.Format(u), fq)
			}
		}
	}
}
