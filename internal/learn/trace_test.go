package learn

import (
	"strings"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

func TestQhorn1TracedAnnotatesEveryQuestion(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	var steps []Step
	learned, stats := Run(u, oracle.Target(target), run.WithSteps(func(s Step) {
		steps = append(steps, s)
	}))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
	if len(steps) != stats.Total() {
		t.Fatalf("traced %d steps, stats say %d questions", len(steps), stats.Total())
	}
	phases := map[string]int{}
	for _, s := range steps {
		if s.Purpose == "" || s.Phase == "" {
			t.Fatalf("unannotated step: %+v", s)
		}
		if s.Question.IsEmpty() {
			t.Fatal("empty question traced")
		}
		phases[s.Phase]++
	}
	if phases["heads"] != stats.HeadQuestions {
		t.Errorf("head steps = %d, stats = %d", phases["heads"], stats.HeadQuestions)
	}
	if phases["bodies"] != stats.BodyQuestions {
		t.Errorf("body steps = %d, stats = %d", phases["bodies"], stats.BodyQuestions)
	}
	if phases["existential"] != stats.ExistentialQuestions {
		t.Errorf("existential steps = %d, stats = %d", phases["existential"], stats.ExistentialQuestions)
	}
	// Purposes are readable sentences mentioning variables.
	found := false
	for _, s := range steps {
		if strings.Contains(s.Purpose, "universal head variable") {
			found = true
		}
	}
	if !found {
		t.Error("no head-test purpose traced")
	}
}

func TestRolePreservingTracedAnnotatesEveryQuestion(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x4 → x5 ∃x2x3")
	var steps []Step
	learned, stats := Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithSteps(func(s Step) {
		steps = append(steps, s)
	}))
	if !learned.Equivalent(target) {
		t.Fatalf("learned %s", learned)
	}
	if len(steps) != stats.Total() {
		t.Fatalf("traced %d steps, stats say %d", len(steps), stats.Total())
	}
	wantPhases := map[string]bool{"heads": false, "bodies": false, "existential": false}
	for _, s := range steps {
		if s.Phase != "" {
			wantPhases[s.Phase] = true
		}
	}
	for ph, seen := range wantPhases {
		if !seen {
			t.Errorf("phase %q never traced", ph)
		}
	}
}

func TestTracedNilTracerIsSilent(t *testing.T) {
	u := boolean.MustUniverse(3)
	target := query.MustParse(u, "∀x1 ∃x2x3")
	learned, _ := Run(u, oracle.Target(target), run.WithSteps(nil))
	if !learned.Equivalent(target) {
		t.Fatal("nil tracer broke learning")
	}
	learned, _ = Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithSteps(nil))
	if !learned.Equivalent(target) {
		t.Fatal("nil tracer broke RP learning")
	}
}

func TestVarNames(t *testing.T) {
	if got := varNames([]int{0, 2, 5}); got != "x1,x3,x6" {
		t.Errorf("varNames = %q", got)
	}
	if got := varNames(nil); got != "" {
		t.Errorf("varNames(nil) = %q", got)
	}
}
