package verify

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

var u6 = boolean.MustUniverse(6)

func paperQuery() query.Query {
	return query.MustParse(u6, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
}

func questionsOf(t *testing.T, vs Set, kind Kind) []Question {
	t.Helper()
	var out []Question
	for _, q := range vs.Questions {
		if q.Kind == kind {
			out = append(out, q)
		}
	}
	return out
}

// checkSets asserts that the questions' tuple sets are exactly the
// given ones (unordered).
func checkSets(t *testing.T, kind string, qs []Question, want []string) {
	t.Helper()
	if len(qs) != len(want) {
		t.Fatalf("%s count = %d, want %d", kind, len(qs), len(want))
	}
	remaining := make([]boolean.Set, len(want))
	for i, w := range want {
		remaining[i] = boolean.MustParseSet(u6, w)
	}
	for _, q := range qs {
		matched := false
		for i, w := range remaining {
			if q.Set.Equal(w) {
				remaining = append(remaining[:i], remaining[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected %s question %s (%s)", kind, q.Set.Format(u6), q.About)
		}
	}
}

func mustBuild(t *testing.T, q query.Query) Set {
	t.Helper()
	vs, err := Build(q)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestWorkedExample pins the verification set of §4.2 for the
// paper's six-variable query.
func TestWorkedExample(t *testing.T) {
	vs := mustBuild(t, paperQuery())

	// A1: exactly the five dominant distinguishing tuples.
	a1 := questionsOf(t, vs, A1)
	if len(a1) != 1 {
		t.Fatalf("A1 count = %d", len(a1))
	}
	wantA1 := boolean.MustParseSet(u6, "{111001, 011110, 110011, 011011, 100110}")
	if !a1[0].Set.Equal(wantA1) {
		t.Errorf("A1 = %s, want %s", a1[0].Set.Format(u6), wantA1.Format(u6))
	}
	if !a1[0].Expect {
		t.Error("A1 must expect answer")
	}

	// N1: four questions (100110 is a guarantee clause), each pinned
	// to the paper's table.
	n1 := questionsOf(t, vs, N1)
	if len(n1) != 4 {
		t.Fatalf("N1 count = %d, want 4", len(n1))
	}
	wantN1 := map[string]string{
		// ∃x1x2x3(x6), t = 111001
		"111001": "{110001, 101001, 011001, 011110, 110011, 011011, 100110}",
		// ∃x2x3x4(x5), t = 011110
		"011110": "{111001, 011010, 010110, 001110, 110011, 011011, 100110}",
		// ∃x1x2x5(x6), t = 110011
		"110011": "{111001, 011110, 110001, 100011, 010011, 011011, 100110}",
		// ∃x2x3x5x6, t = 011011
		"011011": "{111001, 011110, 110011, 011010, 011001, 010011, 001011, 100110}",
	}
	for _, q := range n1 {
		if q.Expect {
			t.Errorf("N1 %s must expect non-answer", q.About)
		}
		matched := false
		for tuple, want := range wantN1 {
			wantSet := boolean.MustParseSet(u6, want)
			if q.Set.Equal(wantSet) {
				matched = true
				delete(wantN1, tuple)
				break
			}
		}
		if !matched {
			t.Errorf("unexpected N1 question %s (%s)", q.Set.Format(u6), q.About)
		}
	}
	if len(wantN1) != 0 {
		t.Errorf("missing N1 questions: %v", wantN1)
	}

	// A2: three questions.
	a2 := questionsOf(t, vs, A2)
	checkSets(t, "A2", a2, []string{
		"{111111, 100001, 000101}", // ∀x1x4→x5
		"{111111, 001001, 000101}", // ∀x3x4→x5
		"{111111, 100010, 010010}", // ∀x1x2→x6
	})

	// N2: three questions.
	n2 := questionsOf(t, vs, N2)
	checkSets(t, "N2", n2, []string{
		"{111111, 100101}",
		"{111111, 001101}",
		"{111111, 110010}",
	})

	// A3: includes the paper's worked question for ∃x2x3x4x5 / x5.
	a3 := questionsOf(t, vs, A3)
	want := boolean.MustParseSet(u6, "{111111, 010101, 111001}")
	found := false
	for _, q := range a3 {
		if q.Set.Equal(want) {
			found = true
		}
		if !q.Expect {
			t.Errorf("A3 must expect answer")
		}
	}
	if !found {
		t.Errorf("paper's A3 question missing; got %d A3 questions", len(a3))
		for _, q := range a3 {
			t.Logf("  A3 %s: %s", q.About, q.Set.Format(u6))
		}
	}

	// A4: the four non-head variables.
	a4 := questionsOf(t, vs, A4)
	if len(a4) != 1 {
		t.Fatalf("A4 count = %d", len(a4))
	}
	wantA4 := boolean.MustParseSet(u6, "{111111, 011111, 101111, 110111, 111011}")
	if !a4[0].Set.Equal(wantA4) {
		t.Errorf("A4 = %s, want %s", a4[0].Set.Format(u6), wantA4.Format(u6))
	}
}

func TestBuildRejectsNonRolePreserving(t *testing.T) {
	q := query.MustParse(u6, "∀x1x4 → x5 ∀x2x3x5 → x6")
	if _, err := Build(q); err == nil {
		t.Fatal("non-role-preserving query accepted")
	}
}

// TestSelfConsistency: the given query classifies every question of
// its own verification set as expected, for every role-preserving
// query on 2 and 3 variables plus random larger ones.
func TestSelfConsistency(t *testing.T) {
	for _, n := range []int{2, 3} {
		u := boolean.MustUniverse(n)
		for _, q := range query.AllQueries(u) {
			vs := mustBuild(t, q)
			if !vs.SelfConsistent() {
				for _, question := range vs.Questions {
					if vs.Query.Eval(question.Set) != question.Expect {
						t.Errorf("query %s: %s question %s expected %v",
							q, question.Kind, question.Set.Format(u), question.Expect)
					}
				}
				t.Fatalf("verification set of %s not self-consistent", q)
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		n := 4 + rng.Intn(10)
		q := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads:         rng.Intn(n / 2),
			BodiesPerHead: 1 + rng.Intn(3),
			MaxBodySize:   1 + rng.Intn(3),
			Conjs:         rng.Intn(4),
			MaxConjSize:   1 + rng.Intn(n),
		})
		vs := mustBuild(t, q)
		if !vs.SelfConsistent() {
			t.Fatalf("verification set of %s not self-consistent", q)
		}
	}
}

// TestCompletenessTwoVars is Theorem 4.2 verified exhaustively: for
// every ordered pair (intended, given) of role-preserving queries on
// two variables, verification succeeds iff the queries are
// semantically equivalent. This regenerates the content of Fig 8.
func TestCompletenessTwoVars(t *testing.T) {
	u := boolean.MustUniverse(2)
	queries := query.AllQueries(u)
	for _, given := range queries {
		vs := mustBuild(t, given)
		for _, intended := range queries {
			res := vs.RunWith(oracle.Target(intended))
			want := given.Equivalent(intended)
			if res.Correct != want {
				t.Errorf("given %s, intended %s: verification correct=%v, equivalent=%v",
					given, intended, res.Correct, want)
			}
		}
	}
}

// TestCompletenessThreeVars extends the exhaustive Theorem 4.2 check
// to three variables.
func TestCompletenessThreeVars(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive pair check on 3 variables")
	}
	u := boolean.MustUniverse(3)
	queries := query.AllQueries(u)
	t.Logf("checking %d × %d pairs", len(queries), len(queries))
	for _, given := range queries {
		vs := mustBuild(t, given)
		for _, intended := range queries {
			res := vs.RunWith(oracle.Target(intended))
			want := given.Equivalent(intended)
			if res.Correct != want {
				t.Fatalf("given %s, intended %s: verification correct=%v, equivalent=%v",
					given, intended, res.Correct, want)
			}
		}
	}
}

// TestCompletenessRandomPairs samples larger universes.
func TestCompletenessRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	gen := func(n int) query.Query {
		return query.GenRolePreserving(rng, n, query.RPOptions{
			Heads:         rng.Intn(n / 2),
			BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize:   1 + rng.Intn(3),
			Conjs:         rng.Intn(3),
			MaxConjSize:   1 + rng.Intn(n),
		})
	}
	for i := 0; i < 200; i++ {
		n := 4 + rng.Intn(6)
		given, intended := gen(n), gen(n)
		res, err := Run(given, oracle.Target(intended))
		if err != nil {
			t.Fatal(err)
		}
		want := given.Equivalent(intended)
		if res.Correct != want {
			t.Fatalf("given %s, intended %s: verification correct=%v, equivalent=%v",
				given, intended, res.Correct, want)
		}
	}
}

// TestVerificationSetSizeLinearInK: Fig 6 question counts — one A1,
// one A4, one A2+N2 per dominant universal, one N1 per non-guarantee
// conjunction.
func TestVerificationSetSizeLinearInK(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 50; i++ {
		n := 6 + rng.Intn(10)
		q := query.GenRolePreserving(rng, n, query.RPOptions{
			Heads:         1 + rng.Intn(3),
			BodiesPerHead: 1 + rng.Intn(2),
			MaxBodySize:   2,
			Conjs:         1 + rng.Intn(4),
			MaxConjSize:   4,
		})
		vs := mustBuild(t, q)
		nf := vs.Query
		k := nf.Size()
		// Generous linear envelope: A1 + A4 + (A2+N2 per universal) +
		// N1 per conjunction + A3 per (conjunction, head).
		bound := 2 + 3*k + k*k
		if len(vs.Questions) > bound {
			t.Errorf("%d questions for k=%d (bound %d): %s", len(vs.Questions), k, bound, nf)
		}
	}
}

// TestVerifyReportsDisagreementDetails checks the diagnostics.
func TestVerifyReportsDisagreementDetails(t *testing.T) {
	u := boolean.MustUniverse(2)
	given := query.MustParse(u, "∀x1 → x2")
	intended := query.MustParse(u, "∃x1x2")
	res, err := Run(given, oracle.Target(intended))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("semantically different queries verified as correct")
	}
	if len(res.Disagreements) == 0 {
		t.Fatal("no disagreements recorded")
	}
	for _, d := range res.Disagreements {
		if d.Got == d.Question.Expect {
			t.Error("disagreement with matching classifications")
		}
		if d.Question.About == "" {
			t.Error("disagreement without diagnostic label")
		}
	}
}

// TestEmptyQueryVerification: the empty query has an empty (or
// trivial) verification set and verifies against itself.
func TestEmptyQueryVerification(t *testing.T) {
	u := boolean.MustUniverse(3)
	empty := query.Query{U: u}
	res, err := Run(empty, oracle.Target(empty))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Error("empty query failed self-verification")
	}
}

func TestRunFirstDisagreement(t *testing.T) {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	vs := mustBuild(t, given)
	// Correct intent: all questions asked, none disagree.
	res := vs.RunWith(oracle.Target(given), run.WithFirstDisagreement())
	if !res.Correct || res.QuestionsAsked != len(vs.Questions) {
		t.Fatalf("self run: %+v", res)
	}
	// Wrong intent: stops at the first disagreement.
	intended := query.MustParse(u, "∃x3x4")
	c := oracle.Count(oracle.Target(intended), nil)
	res = vs.RunWith(c, run.WithFirstDisagreement())
	if res.Correct {
		t.Fatal("difference missed")
	}
	if len(res.Disagreements) != 1 {
		t.Fatalf("disagreements = %d, want 1", len(res.Disagreements))
	}
	if res.QuestionsAsked != c.Questions || res.QuestionsAsked > len(vs.Questions) {
		t.Fatalf("asked %d of %d", res.QuestionsAsked, len(vs.Questions))
	}
}

func TestVerificationReportJSONRoundTrip(t *testing.T) {
	vs := mustBuild(t, paperQuery())
	data, err := vs.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, vs.Report()) {
		t.Fatalf("report changed through JSON:\n%+v\nwant\n%+v", back, vs.Report())
	}
	if back.Variables != vs.Query.U.N() || len(back.Questions) != len(vs.Questions) {
		t.Fatalf("report has %d variables, %d questions", back.Variables, len(back.Questions))
	}
	for i, q := range vs.Questions {
		qr := back.Questions[i]
		if qr.Kind != string(q.Kind) || (qr.Expect == "answer") != q.Expect || len(qr.Tuples) != q.Set.Size() {
			t.Fatalf("question %d: %+v", i, qr)
		}
	}
}

func TestSampleAndDetectionRate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vs := mustBuild(t, paperQuery())
	// Sampling.
	sub := vs.Sample(rng, 4)
	if len(sub.Questions) != 4 {
		t.Fatalf("sample size = %d", len(sub.Questions))
	}
	if got := vs.Sample(rng, 100); len(got.Questions) != len(vs.Questions) {
		t.Fatal("oversample did not return full set")
	}
	if got := vs.Sample(rng, -3); len(got.Questions) != 0 {
		t.Fatal("negative sample returned questions")
	}
	// Detection: full set catches a different intent with certainty.
	intended := query.MustParse(u6, "∀x1x4 → x5 ∃x2x3")
	if rate := vs.DetectionRate(rng, oracle.Target(intended), len(vs.Questions), 20); rate != 1 {
		t.Fatalf("full-set detection rate = %v", rate)
	}
	// Equivalent intent: nothing to miss.
	if rate := vs.DetectionRate(rng, oracle.Target(vs.Query), 1, 20); rate != 1 {
		t.Fatalf("equivalent detection rate = %v", rate)
	}
	// A single question detects with probability ≈ disagreements/total.
	full := vs.RunWith(oracle.Target(intended))
	want := float64(len(full.Disagreements)) / float64(len(vs.Questions))
	rate := vs.DetectionRate(rng, oracle.Target(intended), 1, 4000)
	if rate < want-0.05 || rate > want+0.05 {
		t.Errorf("1-question detection rate %.3f, want ≈%.3f", rate, want)
	}
	if got := vs.DetectionRate(rng, oracle.Target(intended), 1, 0); got != 0 {
		t.Errorf("zero trials rate = %v", got)
	}
}
