package difffuzz

import (
	"math/rand"
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/query"
)

// TestRunClean: the engine finds no disagreements between the
// learners, the verifier, brute force, and ground-truth semantics on
// seeded random cases — the repository's implementations agree.
func TestRunClean(t *testing.T) {
	rep := Run(Config{Seed: 1, Runs: 300})
	if len(rep.Disagreements) != 0 {
		for i, d := range rep.Disagreements {
			if i > 5 {
				break
			}
			t.Errorf("disagreement: %s", d)
		}
	}
	if rep.CasesByClass[ClassQhorn1] == 0 || rep.CasesByClass[ClassRP] == 0 || rep.CasesByClass[ClassVerify] == 0 {
		t.Errorf("expected cases of every class, got %v", rep.CasesByClass)
	}
	if rep.BruteCases == 0 {
		t.Error("expected at least one brute-force cross-check on small universes")
	}
	if rep.Questions == 0 {
		t.Error("expected membership questions to be counted")
	}
	if !strings.Contains(rep.Summary(), "disagreements: 0") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

// TestRunDeterministic: the same config yields the identical report —
// the property CI smoke runs and repro replays rely on.
func TestRunDeterministic(t *testing.T) {
	a := Run(Config{Seed: 42, Runs: 60})
	b := Run(Config{Seed: 42, Runs: 60})
	if a.Questions != b.Questions || len(a.Disagreements) != len(b.Disagreements) {
		t.Errorf("same seed diverged: %d/%d questions, %d/%d disagreements",
			a.Questions, b.Questions, len(a.Disagreements), len(b.Disagreements))
	}
	for class, n := range a.CasesByClass {
		if b.CasesByClass[class] != n {
			t.Errorf("class %s: %d vs %d cases", class, n, b.CasesByClass[class])
		}
	}
}

// TestRunClassRestriction: restricting the class draws only that
// class (plus derived verify cases).
func TestRunClassRestriction(t *testing.T) {
	rep := Run(Config{Seed: 3, Runs: 30, Class: ClassQhorn1})
	if rep.CasesByClass[ClassRP] != 0 {
		t.Errorf("rp cases generated under qhorn1 restriction: %v", rep.CasesByClass)
	}
	if rep.CasesByClass[ClassQhorn1] != 30 {
		t.Errorf("expected 30 qhorn1 cases, got %v", rep.CasesByClass)
	}
}

// TestRunObservability: the engine maintains the fuzz metrics and
// emits a root span.
func TestRunObservability(t *testing.T) {
	tree := obs.NewTreeSink()
	tr := obs.NewTracer(tree)
	reg := obs.NewRegistry()
	rep := Run(Config{Seed: 5, Runs: 10, Spans: tr, Metrics: reg})
	if got := reg.SumCounter(obs.MetricFuzzCases); got < 10 {
		t.Errorf("fuzz case counter = %d, want >= 10", got)
	}
	if len(rep.Disagreements) != 0 {
		t.Fatalf("unexpected disagreements: %v", rep.Disagreements)
	}
	if got := reg.SumCounter(obs.MetricFuzzDisagreements); got != 0 {
		t.Errorf("disagreement counter = %d on a clean run", got)
	}
	names := tree.SpanNames()
	foundRoot := false
	for _, name := range names {
		if name == "difffuzz" {
			foundRoot = true
		}
	}
	if !foundRoot {
		t.Errorf("trace missing root span, got %v", names)
	}
}

// TestGenCaseClasses: generated cases are valid members of their
// declared class across universe sizes.
func TestGenCaseClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		for _, class := range []Class{ClassQhorn1, ClassRP, ClassVerify} {
			c := GenCase(rng, class, 2, 8)
			if n := c.Hidden.N(); n < 2 || n > 8 {
				t.Fatalf("%s: universe size %d outside [2,8]", class, n)
			}
			if !validCase(c) {
				t.Fatalf("%s: generated invalid case %s", class, c)
			}
		}
	}
}

// TestMutantProperties: mutants are valid role-preserving queries
// structurally distinct from the original, and every mutator fires.
func TestMutantProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fired := map[string]int{}
	for i := 0; i < 400; i++ {
		c := GenCase(rng, ClassRP, 3, 8)
		m, name, ok := Mutant(rng, c.Hidden)
		if !ok {
			continue
		}
		fired[name]++
		if err := m.Validate(); err != nil {
			t.Fatalf("mutant %s of %s invalid: %v", m, c.Hidden, err)
		}
		if !m.IsRolePreserving() {
			t.Fatalf("mutant %s of %s is not role-preserving", m, c.Hidden)
		}
		if m.Equal(c.Hidden) {
			t.Fatalf("mutant %s equals original", m)
		}
	}
	for _, m := range mutators {
		if fired[m.name] == 0 {
			t.Errorf("mutator %q never produced a mutant", m.name)
		}
	}
}

// TestMutantTrivialQuery: ⊤ admits no mutation other than add-conj,
// and Mutant must not loop forever on it.
func TestMutantTrivialQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	top := query.Query{U: boolean.MustUniverse(3)}
	m, name, ok := Mutant(rng, top)
	if ok && (m.Validate() != nil || m.Equal(top)) {
		t.Fatalf("bad mutant %s (%s) of ⊤", m, name)
	}
}

// TestSemanticWitnessExhaustive: on small universes the witness
// search is exhaustive, so it agrees exactly with normal-form
// equivalence on role-preserving pairs (Proposition 4.1).
func TestSemanticWitnessExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opt := Options{}.withDefaults()
	for i := 0; i < 150; i++ {
		a := GenCase(rng, ClassRP, 2, 3).Hidden
		b := GenCase(rng, ClassRP, a.N(), a.N()).Hidden
		w, found := SemanticWitness(a, b, opt)
		if found == a.Equivalent(b) {
			t.Fatalf("witness search and Equivalent disagree on %s vs %s", a, b)
		}
		if found && a.Eval(w) == b.Eval(w) {
			t.Fatalf("witness %s does not separate %s and %s", w.Format(a.U), a, b)
		}
	}
}

// TestSemanticWitnessLargeUniverse: on universes beyond the
// exhaustive bound, the verification-set probes still find a witness
// for structurally different queries (Theorem 4.2).
func TestSemanticWitnessLargeUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	opt := Options{}.withDefaults()
	for i := 0; i < 60; i++ {
		a := GenCase(rng, ClassRP, 5, 8).Hidden
		m, _, ok := Mutant(rng, a)
		if !ok || a.Equivalent(m) {
			continue
		}
		w, found := SemanticWitness(a, m, opt)
		if !found {
			t.Fatalf("no witness for inequivalent pair %s vs %s", a, m)
		}
		if a.Eval(w) == m.Eval(w) {
			t.Fatalf("witness %s does not separate %s and %s", w.Format(a.U), a, m)
		}
	}
}

// TestShrinkWitness: shrunk witnesses still separate and are minimal
// under single-tuple removal.
func TestShrinkWitness(t *testing.T) {
	u := boolean.MustUniverse(3)
	a := query.MustParse(u, "∀x1 → x2 ∃x3")
	b := query.MustParse(u, "∃x3")
	w := boolean.NewSet(
		boolean.FromVars(0),
		boolean.FromVars(2),
		u.All(),
	)
	if a.Eval(w) == b.Eval(w) {
		t.Fatal("fixture does not separate")
	}
	small := ShrinkWitness(a, b, w)
	if a.Eval(small) == b.Eval(small) {
		t.Fatal("shrunk witness no longer separates")
	}
	for _, tup := range small.Tuples() {
		cand := small.Without(tup)
		if a.Eval(cand) != b.Eval(cand) {
			t.Errorf("witness %s not minimal: can drop %s", small.Format(u), u.Format(tup))
		}
	}
}

// TestCheckCaseVerifyEquivalentGiven: a verify case whose given query
// IS the hidden one must pass (the verifier answers Correct).
func TestCheckCaseVerifyEquivalentGiven(t *testing.T) {
	u := boolean.MustUniverse(4)
	h := query.MustParse(u, "∀x1x2 → x3 ∃x4")
	res := CheckCase(Case{Class: ClassVerify, Hidden: h, Given: h}, Options{})
	if len(res.Disagreements) != 0 {
		t.Errorf("self-verify flagged: %v", res.Disagreements)
	}
}

// TestCheckCaseVerifySkipsNonRolePreserving: cases outside the
// verifier's domain are skipped, not reported.
func TestCheckCaseVerifySkipsNonRolePreserving(t *testing.T) {
	u := boolean.MustUniverse(3)
	bad := query.MustParse(u, "∀x1 → x2 ∀x2 → x3")
	res := CheckCase(Case{Class: ClassVerify, Hidden: bad, Given: bad}, Options{})
	if len(res.Disagreements) != 0 || res.Questions != 0 {
		t.Errorf("non-role-preserving verify case was not skipped: %+v", res)
	}
}

// TestDisagreementString: the rendered disagreement names the kind,
// the case, and the witness.
func TestDisagreementString(t *testing.T) {
	u := boolean.MustUniverse(2)
	d := Disagreement{
		Kind:       KindLearnEquiv,
		Case:       Case{Class: ClassQhorn1, Hidden: query.MustParse(u, "∀x1 ∃x2")},
		Witness:    boolean.NewSet(boolean.FromVars(0)),
		HasWitness: true,
		Detail:     "boom",
	}
	s := d.String()
	for _, want := range []string{"learn-equiv", "qhorn1", "boom", "witness"} {
		if !strings.Contains(s, want) {
			t.Errorf("disagreement string %q missing %q", s, want)
		}
	}
}
