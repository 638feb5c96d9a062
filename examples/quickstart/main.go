// Quickstart: learn a quantified Boolean query from membership
// questions and verify it, all through the public qhorn API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"qhorn"
)

func main() {
	// Six propositions about the tuples nested in each data object.
	u := qhorn.MustUniverse(6)

	// The query the user has in mind but cannot write: whenever a
	// tuple satisfies x1 and x4 it must satisfy x5, and some tuple
	// satisfies x2 ∧ x3.
	intended := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3")
	fmt.Println("intended (hidden):", intended)

	// The learner only sees the user's answers to membership
	// questions. Here the user is simulated; wrap the oracle with a
	// counter and a transcript recorder to inspect the interaction.
	user := qhorn.RecordingOracle(qhorn.CountingOracle(qhorn.TargetOracle(intended), nil))

	// Learn through the run engine: options select the algorithm and
	// compose with instrumentation and batching (docs/ENGINE.md); a
	// budget or a noisy user is one more wrapper around the oracle
	// (qhorn.BudgetOracle, qhorn.NoisyOracle).
	learned, stats := qhorn.Learn(u, user,
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	fmt.Println("learned:           ", learned)
	fmt.Println("equivalent:        ", learned.Equivalent(intended))
	fmt.Printf("questions:          %d (head %d, universal %d, existential %d)\n",
		stats.Total(), stats.HeadQuestions, stats.BodyQuestions, stats.ExistentialQuestions)

	// A few lines of the interaction transcript.
	fmt.Println("\nfirst questions asked:")
	for i, e := range user.Entries {
		if i == 5 {
			fmt.Printf("  … %d more\n", len(user.Entries)-5)
			break
		}
		verdict := "non-answer"
		if e.Answer {
			verdict = "answer"
		}
		fmt.Printf("  %-28s -> %s\n", e.Question.Format(u), verdict)
	}

	// Verification (§4): O(k) questions decide whether a written
	// query matches the user's intent.
	res, err := qhorn.Verify(learned, qhorn.TargetOracle(intended))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nverification: correct=%v with %d questions\n", res.Correct, res.QuestionsAsked)

	// A semantically different query is always caught (Theorem 4.2);
	// WithFirstDisagreement stops at the first conflicting answer.
	wrong := qhorn.MustParseQuery(u, "∀x1x4 → x6 ∃x2x3")
	res, err = qhorn.Verify(wrong, qhorn.TargetOracle(intended),
		qhorn.WithFirstDisagreement())
	if err != nil {
		panic(err)
	}
	fmt.Printf("verifying a wrong query: correct=%v, first disagreement on %s (%s)\n",
		res.Correct, res.Disagreements[0].Question.Kind, res.Disagreements[0].Question.About)
}
