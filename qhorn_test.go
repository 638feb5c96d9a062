package qhorn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"qhorn"
)

func TestFacadeQhorn1Learn(t *testing.T) {
	u := qhorn.MustUniverse(6)
	target := qhorn.MustParseQuery(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	learned, stats := qhorn.Learn(u, qhorn.TargetOracle(target))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s, want %s", learned, target)
	}
	if stats.Total() == 0 {
		t.Fatal("no questions counted")
	}
}

func TestFacadeRolePreservingLearn(t *testing.T) {
	u := qhorn.MustUniverse(6)
	target := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∀x3x4 → x5 ∃x1x2x3")
	learned, stats := qhorn.Learn(u, qhorn.TargetOracle(target), qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s, want %s", learned, target)
	}
	if stats.BodyQuestions == 0 || stats.ExistentialQuestions == 0 {
		t.Fatalf("stats incomplete: %+v", stats)
	}
}

func TestFacadeVerify(t *testing.T) {
	u := qhorn.MustUniverse(4)
	given := qhorn.MustParseQuery(u, "∀x1 → x2 ∃x3x4")
	res, err := qhorn.Verify(given, qhorn.TargetOracle(given))
	if err != nil || !res.Correct {
		t.Fatalf("self-verification failed: %v %+v", err, res)
	}
	other := qhorn.MustParseQuery(u, "∀x1 → x3 ∃x2x4")
	res, err = qhorn.Verify(given, qhorn.TargetOracle(other))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("different intended query not detected")
	}
}

func TestFacadeConstructors(t *testing.T) {
	u := qhorn.MustUniverse(4)
	q, err := qhorn.NewQuery(u,
		qhorn.UniversalHorn(qhorn.Vars(0, 1), 2),
		qhorn.BodylessUniversal(3),
		qhorn.Conjunction(qhorn.Vars(0, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	parsed := qhorn.MustParseQuery(u, "∀x1x2 → x3 ∀x4 ∃x1x4")
	if !q.Equal(parsed) {
		t.Fatalf("constructed %s, parsed %s", q, parsed)
	}
	if _, err := qhorn.NewQuery(u, qhorn.ExistentialHorn(qhorn.Vars(0), 0)); err == nil {
		t.Fatal("head-in-body accepted")
	}
}

func TestFacadeOracles(t *testing.T) {
	u := qhorn.MustUniverse(4)
	target := qhorn.MustParseQuery(u, "∃x1x2")
	c := qhorn.CountingOracle(qhorn.TargetOracle(target), nil)
	r := qhorn.RecordingOracle(c)
	// ∃x1x2 leaves x3, x4 unquantified, which qhorn-1 forbids; the
	// role-preserving learner handles it.
	learned, _ := qhorn.Learn(u, r, qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	if !learned.Equivalent(target) {
		t.Fatal("learning through wrappers failed")
	}
	if c.Questions == 0 || len(r.Entries) != c.Questions {
		t.Fatalf("wrappers out of sync: %d vs %d", c.Questions, len(r.Entries))
	}
	rng := rand.New(rand.NewSource(1))
	noisy := qhorn.NoisyOracle(qhorn.TargetOracle(target), 1.0, rng)
	if noisy.Ask(qhorn.Set{}) == target.Eval(qhorn.Set{}) {
		t.Fatal("p=1 noise did not flip")
	}
	budget := qhorn.BudgetOracle(qhorn.TargetOracle(target), 1, nil)
	budget.Ask(qhorn.Set{})
	defer func() {
		if recover() == nil {
			t.Fatal("BudgetOracle answered past its cap of 1")
		}
	}()
	budget.Ask(qhorn.Set{})
}

func TestFacadeGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if q := qhorn.GenQhorn1(rng, 8); !q.IsQhorn1() {
		t.Fatal("GenQhorn1 broken")
	}
	q := qhorn.GenRolePreserving(rng, 8, qhorn.RPOptions{Heads: 2, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3})
	if !q.IsRolePreserving() {
		t.Fatal("GenRolePreserving broken")
	}
}

// Example demonstrates the paper's core loop: simulate a user, learn
// her query, then verify it.
func Example() {
	u := qhorn.MustUniverse(4)
	intended := qhorn.MustParseQuery(u, "∀x1 → x2 ∃x3x4")
	user := qhorn.TargetOracle(intended)

	learned, stats := qhorn.Learn(u, user, qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	fmt.Println("learned:", learned)
	fmt.Println("equivalent:", learned.Equivalent(intended))

	res, _ := qhorn.Verify(learned, user)
	fmt.Println("verified:", res.Correct, "with", res.QuestionsAsked, "questions")
	fmt.Println("learning questions:", stats.Total() > res.QuestionsAsked)
	// Output:
	// learned: ∀x1 → x2 ∃x1x2 ∃x3x4
	// equivalent: true
	// verified: true with 6 questions
	// learning questions: true
}

func TestFacadeRevise(t *testing.T) {
	u := qhorn.MustUniverse(6)
	given := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3")
	intended := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3 ∃x2x6")
	res, err := qhorn.Revise(given, qhorn.TargetOracle(intended))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Revised.Equivalent(intended) {
		t.Fatalf("revised to %s", res.Revised)
	}
	if qhorn.QueryDistance(given, intended) == 0 {
		t.Fatal("distance of different queries is zero")
	}
	if qhorn.QueryDistance(intended, intended) != 0 {
		t.Fatal("self-distance nonzero")
	}
}

func TestFacadeSession(t *testing.T) {
	u := qhorn.MustUniverse(4)
	target := qhorn.MustParseQuery(u, "∀x1 → x2 ∃x3x4")
	s := qhorn.NewSession(qhorn.TargetOracle(target))
	learned, _ := qhorn.Learn(u, s, qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	if !learned.Equivalent(target) {
		t.Fatal("learning through session failed")
	}
	if s.Len() == 0 || s.LiveQuestions != s.Len() {
		t.Fatalf("session history: len=%d live=%d", s.Len(), s.LiveQuestions)
	}
	// Re-run replays entirely from history.
	s.ResetRun()
	again, _ := qhorn.Learn(u, s, qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	if !again.Equivalent(target) || s.LiveQuestions != 0 {
		t.Fatalf("replay run asked %d live questions", s.LiveQuestions)
	}
}

func TestFacadePAC(t *testing.T) {
	u := qhorn.MustUniverse(5)
	target := qhorn.MustParseQuery(u, "∀x1 → x2 ∃x3x4")
	rng := rand.New(rand.NewSource(3))
	sampler := qhorn.NewBoundarySampler(target, rng, 2)
	h, stats := qhorn.LearnPAC(u, qhorn.TargetOracle(target), sampler, 300, qhorn.PACParams{})
	if stats.Positives == 0 {
		t.Fatal("no positives sampled")
	}
	test := qhorn.NewBoundarySampler(target, rand.New(rand.NewSource(4)), 2)
	if err := qhorn.PACError(h, target, test, 1000); err > 0.15 {
		t.Fatalf("PAC error %.3f", err)
	}
}

func TestFacadeTracing(t *testing.T) {
	u := qhorn.MustUniverse(4)
	target := qhorn.MustParseQuery(u, "∀x1 ∃x2x3 ∃x4")
	var steps []qhorn.TraceStep
	learned, stats := qhorn.Learn(u, qhorn.TargetOracle(target), qhorn.WithSteps(func(s qhorn.TraceStep) {
		steps = append(steps, s)
	}))
	if !learned.Equivalent(target) {
		t.Fatal("traced learning failed")
	}
	if len(steps) != stats.Total() {
		t.Fatalf("steps = %d, questions = %d", len(steps), stats.Total())
	}
	learnedRP, rpStats := qhorn.Learn(u, qhorn.TargetOracle(target),
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving), qhorn.WithSteps(nil))
	if !learnedRP.Equivalent(target) || rpStats.Total() == 0 {
		t.Fatal("traced RP learning failed")
	}
}

func TestFacadeEstimates(t *testing.T) {
	if qhorn.EstimateQhorn1(16) <= 16 {
		t.Error("qhorn-1 estimate too small")
	}
	if qhorn.EstimateRolePreserving(16, 2, 2, 6) <= qhorn.EstimateQhorn1(16) {
		t.Error("role-preserving estimate should dominate")
	}
}

func TestFacadeQueryMethods(t *testing.T) {
	u := qhorn.MustUniverse(4)
	a := qhorn.MustParseQuery(u, "∃x1x2")
	b := qhorn.MustParseQuery(u, "∃x1")
	if !a.Implies(b) || b.Implies(a) {
		t.Error("Implies through the facade broken")
	}
	r := qhorn.MustParseQuery(u, "∀x1x2 → x3 ∀x2x3 → x4").Classify()
	if r.RolePreserving {
		t.Error("Classify through the facade broken")
	}
	if qhorn.MustParseQuery(u, "∃x1 ∃x2 ∃x3 ∃x4").Classify().Qhorn1 != true {
		t.Error("Classify qhorn-1 wrong")
	}
}

func TestFacadeClassifyAndReport(t *testing.T) {
	u := qhorn.MustUniverse(6)
	r := qhorn.Classify(qhorn.MustParseQuery(u, "∀x1x4 → x5 ∀x2x3x5 → x6"))
	if r.RolePreserving {
		t.Error("Classify facade broken")
	}
	vs, err := qhorn.BuildVerificationSet(qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3"))
	if err != nil {
		t.Fatal(err)
	}
	var report qhorn.VerificationReport = vs.Report()
	if report.Variables != 6 || len(report.Questions) != len(vs.Questions) {
		t.Errorf("report = %+v", report)
	}
}

// TestFacadeBatchMatchesSerial: AskAll through the facade answers
// aligned with the questions, and batched learns and verifies match the
// serial ones.
func TestFacadeBatchMatchesSerial(t *testing.T) {
	u := qhorn.MustUniverse(6)
	target := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3")
	qs := []qhorn.Set{
		qhorn.MustParseSet(u, "{111111}"),
		qhorn.MustParseSet(u, "{000000}"),
	}
	answers := qhorn.AskAll(qhorn.TargetOracle(target), qs)
	if len(answers) != 2 || answers[0] != target.Eval(qs[0]) || answers[1] != target.Eval(qs[1]) {
		t.Errorf("AskAll through the facade: %v", answers)
	}

	serial, sstats := qhorn.Learn(u, qhorn.TargetOracle(target))
	learned, stats := qhorn.Learn(u, qhorn.TargetOracle(target), qhorn.WithBatch())
	if !learned.Equivalent(serial) || stats.Total() != sstats.Total() {
		t.Errorf("batched qhorn-1 got %s (%d questions), serial %s (%d)",
			learned, stats.Total(), serial, sstats.Total())
	}
	rpSerial, rpsStats := qhorn.Learn(u, qhorn.TargetOracle(target), qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	rp, rpStats := qhorn.Learn(u, qhorn.TargetOracle(target),
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving), qhorn.WithBatch())
	if !rp.Equivalent(rpSerial) || rpStats.Total() != rpsStats.Total() {
		t.Errorf("batched role-preserving got %s (%d questions), serial %s (%d)",
			rp, rpStats.Total(), rpSerial, rpsStats.Total())
	}
	res, err := qhorn.Verify(target, qhorn.TargetOracle(target), qhorn.WithBatch())
	if err != nil || !res.Correct {
		t.Errorf("batched verify: %+v, %v", res, err)
	}
}

// TestFacadeCompiledKernel covers the compiled-kernel facade: Compile
// and TargetOracle agree with the specification, Query.Eval.
func TestFacadeCompiledKernel(t *testing.T) {
	u := qhorn.MustUniverse(4)
	q := qhorn.MustParseQuery(u, "∀x1x2 → x3 ∃x4")
	c := qhorn.Compile(q)
	compiled := qhorn.TargetOracle(q)
	for i, o := range []qhorn.Set{
		qhorn.MustParseSet(u, "{1110, 0001}"),
		qhorn.MustParseSet(u, "{1100}"),
		{},
	} {
		want := q.Eval(o)
		if c.Eval(o) != want || compiled.Ask(o) != want {
			t.Fatalf("object %d: kernel/oracle answers diverge from Query.Eval", i)
		}
	}
	if !c.Equivalent(qhorn.Compile(qhorn.MustParseQuery(u, "∃x4 ∀x1x2 → x3"))) {
		t.Error("compiled Equivalent missed a reordering")
	}
}
