// Adversary: watch Theorem 2.1 in action. Once variables may repeat
// freely, qhorn hides the Uni/Alias query class: 2^n candidate
// queries of which any membership question can eliminate at most
// one. A worst-case user (the adversary) forces every learner to ask
// 2^n − 1 questions — exactly why the paper restricts learning to
// qhorn-1 and role-preserving qhorn.
//
//	go run ./examples/adversary
package main

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/brute"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

func main() {
	fmt.Println("Theorem 2.1: learning qhorn with repeated variables needs Ω(2^n) questions")
	fmt.Printf("%4s %12s %18s %14s\n", "n", "class size", "questions forced", "2^n − 1")
	for n := 2; n <= 12; n++ {
		u := boolean.MustUniverse(n)
		class := oracle.AliasClass(u)
		adversary := oracle.NewAdversary(class)
		res, err := brute.Learn(class, adversary, oracle.AliasQuestions(u))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%4d %12d %18d %14d\n", n, len(class), res.Questions, 1<<uint(n)-1)
	}

	// One instance up close: the paper's example with alias
	// {x2, x4, x6} over six variables.
	u := boolean.MustUniverse(6)
	inst := oracle.AliasQuery(u, boolean.FromVars(1, 3, 5))
	fmt.Println("\nexample instance:", inst)
	fmt.Println("the only objects it accepts:")
	all := u.All()
	fmt.Println("  {111111}            ->", inst.Eval(boolean.NewSet(all)))
	fmt.Println("  {111111, 101010}    ->", inst.Eval(boolean.NewSet(all, u.MustParse("101010"))))
	fmt.Println("  {111111, 101011}    ->", inst.Eval(boolean.NewSet(all, u.MustParse("101011"))))

	// Contrast: within role-preserving qhorn the same number of
	// variables costs only polynomially many questions.
	fmt.Println("\ncontrast: the role-preserving learner on 12 variables")
	target := query.MustParse(boolean.MustUniverse(12),
		"∀x1x2 → x11 ∀x3x4 → x12 ∃x5x6x7 ∃x8x9x10")
	learned, stats := learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
	fmt.Printf("  target : %s\n", target)
	fmt.Printf("  learned: %s\n", learned)
	fmt.Printf("  questions: %d (vs 2^12 − 1 = %d for the unrestricted class)\n",
		stats.Total(), 1<<12-1)
}
