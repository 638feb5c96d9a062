package oracle

import (
	"math/rand"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/query"
)

func TestTargetOracle(t *testing.T) {
	u := boolean.MustUniverse(3)
	q := query.MustParse(u, "∀x1 ∃x2x3")
	o := Target(q)
	if !o.Ask(boolean.MustParseSet(u, "{111}")) {
		t.Error("111 should be an answer")
	}
	if o.Ask(boolean.MustParseSet(u, "{011}")) {
		t.Error("011 violates ∀x1")
	}
	// The compiled kernel behind Target answers exactly as the
	// specification, Query.Eval, on every object.
	for _, s := range boolean.AllObjects(u) {
		if o.Ask(s) != q.Eval(s) {
			t.Fatalf("object %s: Target says %v, Eval says %v", s.Format(u), o.Ask(s), q.Eval(s))
		}
	}
}

func TestCounter(t *testing.T) {
	u := boolean.MustUniverse(3)
	o := Count(Target(query.MustParse(u, "∃x1")), nil)
	o.Ask(boolean.MustParseSet(u, "{111, 011}"))
	o.Ask(boolean.MustParseSet(u, "{100}"))
	if o.Questions != 2 || o.Tuples != 3 || o.MaxTuples != 2 {
		t.Errorf("Counter = %+v", o)
	}
	o.Reset()
	if o.Questions != 0 || o.Tuples != 0 || o.MaxTuples != 0 {
		t.Errorf("Reset failed: %+v", o)
	}
}

func TestTranscript(t *testing.T) {
	u := boolean.MustUniverse(2)
	tr := Record(Target(query.MustParse(u, "∃x1")))
	q1 := boolean.MustParseSet(u, "{10}")
	q2 := boolean.MustParseSet(u, "{01}")
	tr.Ask(q1)
	tr.Ask(q2)
	if len(tr.Entries) != 2 {
		t.Fatalf("entries = %d", len(tr.Entries))
	}
	if !tr.Entries[0].Answer || tr.Entries[1].Answer {
		t.Errorf("recorded answers wrong: %+v", tr.Entries)
	}
	if !tr.Entries[0].Question.Equal(q1) {
		t.Error("question not recorded")
	}
}

func TestNoisy(t *testing.T) {
	u := boolean.MustUniverse(2)
	rng := rand.New(rand.NewSource(9))
	truth := Target(query.MustParse(u, "∃x1"))
	noisy := Noisy(truth, 0.3, rng)
	q := boolean.MustParseSet(u, "{10}")
	flips := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if noisy.Ask(q) != true {
			flips++
		}
	}
	rate := float64(flips) / trials
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("flip rate = %.3f, want ≈0.3", rate)
	}
	if silent := Noisy(truth, 0, rng); !silent.Ask(q) {
		t.Error("p=0 flipped a response")
	}
}

func TestInteractive(t *testing.T) {
	u := boolean.MustUniverse(2)
	in := strings.NewReader("y\nmaybe\nn\n")
	var out strings.Builder
	o := Interactive(u, in, &out)
	if !o.Ask(boolean.MustParseSet(u, "{11}")) {
		t.Error("first response should be answer")
	}
	if o.Ask(boolean.MustParseSet(u, "{10}")) {
		t.Error("after re-prompt, response should be non-answer")
	}
	if !strings.Contains(out.String(), "Please answer") {
		t.Error("no re-prompt on malformed input")
	}
	// EOF defaults to non-answer.
	o2 := Interactive(u, strings.NewReader(""), &out)
	if o2.Ask(boolean.MustParseSet(u, "{11}")) {
		t.Error("EOF should default to non-answer")
	}
}

func TestAliasClassTheorem21(t *testing.T) {
	// The paper's example instance: n=6, alias {x2,x4,x6}. Only two
	// questions satisfy it: {1^6} and {1^6, 101010}.
	u := boolean.MustUniverse(6)
	q := AliasQuery(u, boolean.FromVars(1, 3, 5))
	all := u.All()
	if !q.Eval(boolean.NewSet(all)) {
		t.Error("{1^6} must be an answer")
	}
	if !q.Eval(boolean.NewSet(all, u.MustParse("101010"))) {
		t.Error("{1^6, 101010} must be an answer")
	}
	// Any other single-extra-tuple question is a non-answer.
	for m := 0; m < 64; m++ {
		tp := boolean.Tuple(m)
		if tp == all || tp == u.MustParse("101010") {
			continue
		}
		if q.Eval(boolean.NewSet(all, tp)) {
			t.Errorf("{1^6, %s} unexpectedly an answer", u.Format(tp))
		}
	}
}

func TestAliasQuestionsIdentifyExactlyOneInstance(t *testing.T) {
	u := boolean.MustUniverse(4)
	class := AliasClass(u)
	questions := AliasQuestions(u)
	if len(class) != 16 || len(questions) != 16 {
		t.Fatalf("class=%d questions=%d, want 16", len(class), len(questions))
	}
	// Each question (other than Y=∅, which is {1^n} twice, i.e. the
	// one-tuple question) is an answer for exactly one instance.
	for qi, question := range questions {
		if question.Size() == 1 {
			// Y=∅: {1^n} is an answer for every instance.
			count := 0
			for _, inst := range class {
				if inst.Eval(question) {
					count++
				}
			}
			if count != len(class) {
				t.Errorf("{1^n} answered by %d of %d instances", count, len(class))
			}
			continue
		}
		count := 0
		match := -1
		for ci, inst := range class {
			if inst.Eval(question) {
				count++
				match = ci
			}
		}
		if count != 1 || match != qi {
			t.Errorf("question %d answered by %d instances (match %d)", qi, count, match)
		}
	}
}

func TestAdversaryForcesExponentialQuestions(t *testing.T) {
	// Theorem 2.1: the halving adversary answers non-answer to every
	// informative question, eliminating one instance each time.
	u := boolean.MustUniverse(5)
	adv := NewAdversary(AliasClass(u))
	asked := 0
	for _, q := range AliasQuestions(u) {
		if q.Size() == 1 {
			continue // uninformative
		}
		if adv.Remaining() == 1 {
			break
		}
		if adv.Ask(q) {
			t.Fatal("adversary conceded an answer early")
		}
		asked++
	}
	if asked != (1<<5)-1 { // Theorem 2.1: 2^n − 1 questions in the worst case
		t.Errorf("asked = %d, want 2^n-1 = %d", asked, (1<<5)-1)
	}
	if adv.Remaining() != 1 {
		t.Error("adversary not resolved after exhausting questions")
	}
}

func TestHeadPairClass(t *testing.T) {
	u := boolean.MustUniverse(5)
	class := HeadPairClass(u)
	if len(class) != 10 { // C(5,2)
		t.Fatalf("class size = %d", len(class))
	}
	// A question with tuples Ti, Tj for the head pair {i,j} is an
	// answer; for any other pair it is a non-answer (Lemma 3.4).
	all := u.All()
	target := class[0] // pair {x1, x2}
	ans := boolean.NewSet(all.Without(0), all.Without(1))
	if !target.Eval(ans) {
		t.Error("T1,T2 should be an answer for head pair {1,2}")
	}
	wrong := boolean.NewSet(all.Without(2), all.Without(3))
	if target.Eval(wrong) {
		t.Error("T3,T4 should be a non-answer for head pair {1,2}")
	}
	single := boolean.NewSet(all.Without(0))
	if target.Eval(single) {
		t.Error("question with one class-2 tuple is always a non-answer")
	}
}

func TestHeadPairQuestions(t *testing.T) {
	u := boolean.MustUniverse(5)
	qs := HeadPairQuestions(u, 2)
	if len(qs) != 10 {
		t.Fatalf("C(5,2) = 10, got %d", len(qs))
	}
	for _, q := range qs {
		if q.Size() != 2 {
			t.Fatalf("question size %d, want 2", q.Size())
		}
	}
	if got := len(HeadPairQuestions(u, 3)); got != 10 { // C(5,3)
		t.Fatalf("C(5,3) = 10, got %d", got)
	}
	// c > n clamps.
	if got := len(HeadPairQuestions(u, 9)); got != 1 {
		t.Fatalf("clamped c: %d questions", got)
	}
}

func TestHeadPairAdversaryLowerBound(t *testing.T) {
	// Lemma 3.4: with c=2 tuples per question, each question
	// eliminates at most one pair; the adversary forces C(n,2)-1
	// questions.
	u := boolean.MustUniverse(6)
	adv := NewAdversary(HeadPairClass(u))
	asked := 0
	for _, q := range HeadPairQuestions(u, 2) {
		if adv.Remaining() == 1 {
			break
		}
		adv.Ask(q)
		asked++
	}
	if adv.Remaining() != 1 {
		t.Fatalf("adversary still has %d candidates", adv.Remaining())
	}
	want := 6*5/2 - 1
	if asked != want {
		t.Errorf("asked = %d, want %d", asked, want)
	}
}

func TestBodyClass(t *testing.T) {
	// Theorem 3.6 with n=6 body variables, θ=3: bodies of size 3,
	// 3^2 = 9 instances.
	u := boolean.MustUniverse(7)
	class := BodyClass(u, 3)
	if len(class) != 9 {
		t.Fatalf("class size = %d, want 9", len(class))
	}
	for _, q := range class {
		if !q.IsRolePreserving() {
			t.Fatalf("instance not role-preserving: %s", q)
		}
		if got := q.CausalDensity(); got != 3 {
			t.Fatalf("θ = %d, want 3: %s", got, q)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BodyClass with bad θ did not panic")
		}
	}()
	BodyClass(boolean.MustUniverse(6), 3) // 5 not divisible by 2
}

func TestFuncAdapter(t *testing.T) {
	o := Func(func(s boolean.Set) bool { return s.Size() > 1 })
	if o.Ask(boolean.NewSet(0)) || !o.Ask(boolean.NewSet(0, 1)) {
		t.Error("Func adapter broken")
	}
}

func TestBudget(t *testing.T) {
	u := boolean.MustUniverse(2)
	b := WithBudget(Target(query.MustParse(u, "∃x1")), 2, nil)
	q := boolean.MustParseSet(u, "{10}")
	b.Ask(q)
	b.Ask(q)
	if b.Remaining() != 0 || b.Used != 2 {
		t.Fatalf("budget accounting: %+v", b)
	}
	defer func() {
		r := recover()
		eb, ok := r.(ErrBudget)
		if !ok {
			t.Fatalf("panic value = %v", r)
		}
		if eb.Limit != 2 || eb.Error() == "" {
			t.Fatalf("ErrBudget = %+v", eb)
		}
	}()
	b.Ask(q)
	t.Fatal("third question did not panic")
}
