package verify_test

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/verify"
)

func ExampleBuild() {
	u := boolean.MustUniverse(4)
	q := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	vs, err := verify.Build(q)
	if err != nil {
		panic(err)
	}
	for _, question := range vs.Questions {
		expect := "non-answer"
		if question.Expect {
			expect = "answer"
		}
		fmt.Printf("[%s] %-10s %s\n", question.Kind, expect, question.Set.Format(u))
	}
	// Output:
	// [A1] answer     {1100, 0011}
	// [N1] non-answer {1100, 0010, 0001}
	// [A2] answer     {0000, 1111}
	// [N2] non-answer {1000, 1111}
	// [A3] answer     {0011, 1111}
	// [A4] answer     {1110, 1101, 0111, 1111}
}

func ExampleRun() {
	u := boolean.MustUniverse(4)
	given := query.MustParse(u, "∀x1 → x2 ∃x3x4")
	// The user actually wants a different head: the verification set
	// catches it (Theorem 4.2).
	intended := query.MustParse(u, "∀x1 → x3 ∃x3x4")
	res, err := verify.Run(given, oracle.Target(intended))
	if err != nil {
		panic(err)
	}
	fmt.Println("correct:", res.Correct)
	fmt.Println("first caught by:", res.Disagreements[0].Question.Kind)
	// Output:
	// correct: false
	// first caught by: A1
}
