package exp

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Name:  "fig5",
		Paper: "Fig 5, §3.2.1–§3.2.2",
		Claim: "the lattice search walks exactly the paper's trace: bodies x1x4 and x3x4 for x5, body x1x2 for x6, and the five distinguishing tuples",
		Run:   runFig5,
	})
}

// runFig5 regenerates the paper's Fig 5 walkthrough as a question
// trace: the role-preserving learner runs on the §3.2 example query
// with tracing enabled, and the table lists every membership question
// with its phase and purpose.
func runFig5(cfg Config) []*stats.Table {
	e, _ := ByName("fig5")
	u := boolean.MustUniverse(6)
	target := query.MustParse(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")

	t := stats.NewTable(header(e), "#", "phase", "purpose", "question", "response")
	i := 0
	learned, st := learn.Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving), run.WithSteps(func(s learn.Step) {
		i++
		resp := "non-answer"
		if s.Answer {
			resp = "answer"
		}
		t.AddRow(i, s.Phase, s.Purpose, s.Question.Format(u), resp)
	}))
	t.AddNote("target: %s", target)
	t.AddNote("learned: %s (equivalent: %v)", learned, learned.Equivalent(target))
	t.AddNote("questions: %d head, %d universal, %d existential",
		st.HeadQuestions, st.BodyQuestions, st.ExistentialQuestions)

	// The Fig 5 artifacts: the distinguishing tuples of the bodies and
	// conjunctions the trace discovered.
	arts := stats.NewTable(header(e)+" — discovered distinguishing tuples",
		"kind", "expression", "tuple")
	nf := learned.Normalize()
	for _, ue := range nf.DominantUniversals() {
		arts.AddRow("universal", ue.String(), u.Format(nf.UniversalDistinguishingTuple(ue)))
	}
	for _, c := range nf.DominantConjunctions() {
		arts.AddRow("existential", fmt.Sprintf("∃%s", varsLabel(c)), u.Format(c))
	}
	arts.AddNote("paper (Fig 5 / §3.2.2): universal 100101, 001101, 110010; existential 100110, 111001, 011110, 110011, 011011")
	return []*stats.Table{t, arts}
}

func varsLabel(t boolean.Tuple) string {
	s := ""
	for _, v := range t.Vars() {
		s += fmt.Sprintf("x%d", v+1)
	}
	return s
}
