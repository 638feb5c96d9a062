package learn

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/verify"
)

func learnRPTarget(t *testing.T, target query.Query) (query.Query, run.Stats) {
	t.Helper()
	learned, stats := Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	if !learned.Equivalent(target) {
		t.Fatalf("target %s learned as %s", target, learned)
	}
	return learned, stats
}

func TestRolePreservingLearnsPaperExample(t *testing.T) {
	// The running example of §3.2.1–§3.2.2.
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	learned, _ := learnRPTarget(t, target)
	// The learned normal form must carry exactly the paper's
	// dominant conjunctions (§3.2.2) and universal expressions.
	conjs := learned.DominantConjunctions()
	want := map[string]bool{
		"100110": true, "111001": true, "011110": true,
		"110011": true, "011011": true,
	}
	if len(conjs) != len(want) {
		t.Fatalf("learned %d dominant conjunctions, want %d: %s", len(conjs), len(want), learned)
	}
	for _, c := range conjs {
		if !want[u.Format(c)] {
			t.Errorf("unexpected conjunction %s", u.Format(c))
		}
	}
	if got := len(learned.DominantUniversals()); got != 3 {
		t.Errorf("learned %d universal expressions, want 3", got)
	}
}

func TestRolePreservingLearnsFixedQueries(t *testing.T) {
	u4 := boolean.MustUniverse(4)
	u6 := boolean.MustUniverse(6)
	targets := []query.Query{
		// §2.1.4's role-preserving example.
		query.MustParse(u6, "∀x1x4 → x5 ∀x3x4 → x5 ∀x2x4 → x6 ∃x1x2x3 ∃x1x2x5x6"),
		// Empty query: everything is an answer.
		{U: u4},
		// Only existential conjunctions.
		query.MustParse(u4, "∃x1x2 ∃x3x4"),
		// Only universals.
		query.MustParse(u4, "∀x1 → x2 ∀x3 → x4"),
		// Bodyless universal plus conjunction.
		query.MustParse(u4, "∀x1 ∃x2x3"),
		// Head with three incomparable bodies (θ = 3).
		query.MustParse(u6, "∀x1x2 → x6 ∀x3x4 → x6 ∀x5 → x6"),
		// Full-width conjunction only.
		query.MustParse(u4, "∃x1x2x3x4"),
		// Overlapping bodies for different heads.
		query.MustParse(u6, "∀x1x2 → x5 ∀x2x3 → x6 ∃x4"),
	}
	for _, target := range targets {
		learnRPTarget(t, target)
	}
}

// TestRolePreservingExhaustiveTwoVars learns every semantically
// distinct role-preserving query on two variables.
func TestRolePreservingExhaustiveTwoVars(t *testing.T) {
	u := boolean.MustUniverse(2)
	for _, target := range query.AllQueries(u) {
		learnRPTarget(t, target)
	}
}

// TestRolePreservingExhaustiveThreeVars learns every semantically
// distinct role-preserving query on three variables.
func TestRolePreservingExhaustiveThreeVars(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive class on 3 variables")
	}
	u := boolean.MustUniverse(3)
	targets := query.AllQueries(u)
	t.Logf("learning %d queries", len(targets))
	for _, target := range targets {
		learnRPTarget(t, target)
	}
}

func TestRolePreservingRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 150; i++ {
		n := 3 + rng.Intn(10)
		target := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads:         rng.Intn(n / 2),
			BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize:   1 + rng.Intn(3),
			Conjs:         rng.Intn(4),
			MaxConjSize:   1 + rng.Intn(n),
		})
		learnRPTarget(t, target)
	}
}

func TestRolePreservingRoundTripLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 15; i++ {
		target := query.GenRolePreserving(rng, 16, query.RPOptions{
			Heads:         3,
			BodiesPerHead: 2,
			MaxBodySize:   3,
			Conjs:         4,
			MaxConjSize:   6,
		})
		learnRPTarget(t, target)
	}
}

// TestRolePreservingSubsumesQhorn1: qhorn-1 targets are also learned
// exactly by the role-preserving learner (qhorn-1 ⊂ role-preserving).
func TestRolePreservingSubsumesQhorn1(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(9)
		target := query.GenQhorn1(rng, n)
		learnRPTarget(t, target)
	}
}

// TestRolePreservingQuestionBound checks Theorems 3.5/3.8
// empirically: for fixed θ the question count is polynomial —
// comfortably under a crude n^(θ+1) + k·n·lg n envelope.
func TestRolePreservingQuestionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{8, 12, 16} {
		for _, theta := range []int{1, 2} {
			worst := 0
			for i := 0; i < 10; i++ {
				target := query.GenRolePreserving(rng, n, query.RPOptions{
					Heads: 2, BodiesPerHead: theta, MaxBodySize: 3,
					Conjs: 3, MaxConjSize: 5,
				})
				_, stats := learnRPTarget(t, target)
				if q := stats.Total(); q > worst {
					worst = q
				}
			}
			k := float64(2*theta + 3)
			nf := float64(n)
			bound := int(8*(math.Pow(nf, float64(theta)+1)) + 8*k*nf*math.Log2(nf) + 50)
			if worst > bound {
				t.Errorf("n=%d θ=%d: worst=%d exceeds envelope %d", n, theta, worst, bound)
			}
		}
	}
}

// TestFindBodiesDirect exercises the universal body search on the
// paper's Fig 5 lattice.
func TestFindBodiesDirect(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	l := &rpLearner{u: u, o: oracle.Target(target)}
	l.phase = &l.stats.BodyQuestions
	heads := boolean.FromVars(4, 5) // x5, x6
	bodies := l.findBodies(4, heads)
	want := map[boolean.Tuple]bool{
		boolean.FromVars(0, 3): true, // x1x4
		boolean.FromVars(2, 3): true, // x3x4
	}
	if len(bodies) != 2 {
		t.Fatalf("bodies = %v", bodies)
	}
	for _, b := range bodies {
		if !want[b] {
			t.Fatalf("unexpected body %s", b)
		}
	}
	// x6 has the single body x1x2.
	bodies = l.findBodies(5, heads)
	if len(bodies) != 1 || bodies[0] != boolean.FromVars(0, 1) {
		t.Fatalf("x6 bodies = %v", bodies)
	}
}

// TestFindBodiesBodyless: a bodyless head is detected with the
// lattice-bottom question.
func TestFindBodiesBodyless(t *testing.T) {
	u := boolean.MustUniverse(4)
	target := query.MustParse(u, "∀x1 ∃x2x3")
	l := &rpLearner{u: u, o: oracle.Target(target)}
	l.phase = &l.stats.BodyQuestions
	bodies := l.findBodies(0, boolean.FromVars(0))
	if len(bodies) != 1 || !bodies[0].IsEmpty() {
		t.Fatalf("bodies = %v, want [∅]", bodies)
	}
}

// TestRolePreservingNoisyOracleStillTerminates: with a noisy user the
// result is unspecified but the learner must terminate.
func TestRolePreservingNoisyOracleStillTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 20; i++ {
		n := 3 + rng.Intn(5)
		target := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3,
		})
		noisy := oracle.Noisy(oracle.Target(target), 0.1, rng)
		q, _ := Run(target.U, noisy, run.WithAlgorithm(run.RolePreserving))
		if err := q.Validate(); err != nil {
			t.Fatalf("noisy learning produced invalid query: %v", err)
		}
	}
}

func TestQhorn1NoisyOracleStillTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(8)
		target := query.GenQhorn1(rng, n)
		noisy := oracle.Noisy(oracle.Target(target), 0.1, rng)
		q, _ := Run(target.U, noisy)
		if err := q.Validate(); err != nil {
			t.Fatalf("noisy learning produced invalid query: %v", err)
		}
	}
}

// rpTarget is a quick.Generator for random role-preserving queries.
type rpTarget struct{ Q query.Query }

func (rpTarget) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 3 + rng.Intn(7)
	q := query.GenRolePreserving(rng, n, query.RPOptions{
		Heads:         rng.Intn(n / 2),
		BodiesPerHead: 1 + rng.Intn(2),
		MaxBodySize:   1 + rng.Intn(3),
		Conjs:         rng.Intn(3),
		MaxConjSize:   1 + rng.Intn(n),
	})
	return reflect.ValueOf(rpTarget{q})
}

// TestQuickLearnerRoundTrip: the exactness property stated with
// testing/quick — any generated target is recovered up to semantic
// equivalence.
func TestQuickLearnerRoundTrip(t *testing.T) {
	f := func(w rpTarget) bool {
		learned, _ := Run(w.Q.U, oracle.Target(w.Q), run.WithAlgorithm(run.RolePreserving))
		return learned.Equivalent(w.Q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickLearnerVerifierAgree: what the learner outputs always
// passes verification against the same user.
func TestQuickLearnerVerifierAgree(t *testing.T) {
	f := func(w rpTarget) bool {
		learned, _ := Run(w.Q.U, oracle.Target(w.Q), run.WithAlgorithm(run.RolePreserving))
		vs, err := verify.Build(learned)
		if err != nil {
			return false
		}
		return vs.RunWith(oracle.Target(w.Q)).Correct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSortedTupleHelpers checks the sorted builders of the existential
// questions against sorting: mergeUnion of two ascending pieces and a
// descending one, each possibly empty and holding repeats, equals
// slices.Sort plus slices.Compact of their concatenation, and
// insertSorted and removeSorted keep a multiset ascending. Tuples are
// drawn from a small range so repeats across pieces are common.
func TestSortedTupleHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	piece := func(desc bool) []boolean.Tuple {
		ts := make([]boolean.Tuple, rng.Intn(7))
		for i := range ts {
			ts[i] = boolean.Tuple(rng.Intn(12))
		}
		slices.Sort(ts)
		if desc {
			slices.Reverse(ts)
		}
		return ts
	}
	var buf []boolean.Tuple
	for i := 0; i < 5000; i++ {
		a, b, desc := piece(false), piece(false), piece(true)
		want := slices.Concat(a, b, desc)
		slices.Sort(want)
		want = slices.Compact(want)
		buf = mergeUnion(buf, a, b, desc)
		if !slices.Equal(buf, want) {
			t.Fatalf("mergeUnion(%v, %v, %v) = %v, want %v", a, b, desc, buf, want)
		}

		ms := slices.Clone(a)
		x := boolean.Tuple(rng.Intn(12))
		ms = insertSorted(ms, x)
		want = append(slices.Clone(a), x)
		slices.Sort(want)
		if !slices.Equal(ms, want) {
			t.Fatalf("insertSorted(%v, %v) = %v, want %v", a, x, ms, want)
		}
		y := boolean.Tuple(rng.Intn(12))
		got := removeSorted(slices.Clone(ms), y)
		want = slices.Clone(ms)
		if j := slices.Index(want, y); j >= 0 {
			want = slices.Delete(want, j, j+1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("removeSorted(%v, %v) = %v, want %v", ms, y, got, want)
		}
	}
}
