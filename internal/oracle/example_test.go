package oracle_test

import (
	"fmt"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

func ExampleCount() {
	u := boolean.MustUniverse(3)
	o := oracle.Count(oracle.Target(query.MustParse(u, "∀x1 ∃x2x3")), nil)
	o.Ask(boolean.MustParseSet(u, "{111}"))
	o.Ask(boolean.MustParseSet(u, "{111, 011}"))
	fmt.Println(o.Questions, "questions,", o.Tuples, "tuples, max", o.MaxTuples)
	// Output:
	// 2 questions, 3 tuples, max 2
}

func ExampleNewAdversary() {
	// Theorem 2.1's worst-case user over the Uni/Alias class.
	u := boolean.MustUniverse(3)
	adv := oracle.NewAdversary(oracle.AliasClass(u))
	asked := 0
	for _, q := range oracle.AliasQuestions(u) {
		if q.Size() == 1 || adv.Remaining() == 1 {
			continue
		}
		adv.Ask(q)
		asked++
	}
	fmt.Println("questions forced:", asked)
	// Output:
	// questions forced: 7
}
