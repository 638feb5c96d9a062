// Verification: reproduce the §4.2 worked example — build the
// verification set of the paper's six-variable query, show the six
// question families, and demonstrate that a user with a different
// intended query is always caught (Theorem 4.2).
//
//	go run ./examples/verification
package main

import (
	"fmt"

	"qhorn"
)

func main() {
	u := qhorn.MustUniverse(6)

	// The query of §3.2/§4.2.
	given := qhorn.MustParseQuery(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	fmt.Println("given query:", given)

	vs, err := qhorn.BuildVerificationSet(given)
	if err != nil {
		panic(err)
	}
	fmt.Println("normal form:", vs.Query)
	fmt.Printf("\nverification set (%d questions):\n", len(vs.Questions))
	for _, q := range vs.Questions {
		expect := "non-answer"
		if q.Expect {
			expect = "answer"
		}
		fmt.Printf("  [%s] expect %-10s %-22s %s\n", q.Kind, expect, q.About, q.Set.Format(u))
	}

	// Case 1: the user's intent matches — every question agrees.
	res := vs.RunWith(qhorn.TargetOracle(given))
	fmt.Printf("\nuser intends the same query: correct=%v\n", res.Correct)

	// Case 2: the user's intended query has an extra universal body
	// x2x3x4 → x5 incomparable with the given bodies — exactly the
	// situation question A3 exists for (Lemma 4.6).
	intended := qhorn.MustParseQuery(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x2x3 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	res = vs.RunWith(qhorn.TargetOracle(intended))
	fmt.Printf("user intends an extra body ∀x2x3 → x5: correct=%v\n", res.Correct)
	for _, d := range res.Disagreements {
		fmt.Printf("  caught by [%s] %s: %s\n", d.Question.Kind, d.Question.About, d.Question.Set.Format(u))
	}

	// Case 3: a head variable the given query missed (A4's job,
	// Lemma 4.7).
	intended = qhorn.MustParseQuery(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∀x2 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	res = vs.RunWith(qhorn.TargetOracle(intended))
	fmt.Printf("user additionally requires ∀x2: correct=%v\n", res.Correct)
	for _, d := range res.Disagreements {
		fmt.Printf("  caught by [%s] %s\n", d.Question.Kind, d.Question.About)
	}
}
