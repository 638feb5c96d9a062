package learn_test

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

func ExampleRun() {
	// Fig 2's qhorn-1 query, learned exactly from membership
	// questions.
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	learned, stats := learn.Run(u, oracle.Target(target))
	fmt.Println("equivalent:", learned.Equivalent(target))
	fmt.Println("head questions:", stats.HeadQuestions)
	// Output:
	// equivalent: true
	// head questions: 6
}

func ExampleRun_rolePreserving() {
	// The running example of §3.2, learned through the Boolean
	// lattice.
	u := boolean.MustUniverse(6)
	target := query.MustParse(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	learned, _ := learn.Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	fmt.Println("equivalent:", learned.Equivalent(target))
	for _, c := range learned.DominantConjunctions() {
		fmt.Println(u.Format(c))
	}
	// Output:
	// equivalent: true
	// 100110
	// 011110
	// 111001
	// 110011
	// 011011
}

func ExampleMatrixQuestion() {
	// The Lemma 3.3 example: D = {x2, x3, x4} over four variables.
	u := boolean.MustUniverse(4)
	q := learn.MatrixQuestion(u, boolean.FromVars(1, 2, 3))
	fmt.Println(q.Format(u))
	// Two heads sharing the body {x1, x3} make it an answer.
	twoHeads := query.MustParse(u, "∃x1x3 → x2 ∃x1x3 → x4")
	fmt.Println(twoHeads.Eval(q))
	// Output:
	// {1110, 1101, 1011}
	// true
}
