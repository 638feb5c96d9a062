// Chocolates: the paper's running example end to end in the data
// domain. A user wants "a box of dark chocolates, some with filling
// from Madagascar" but can't write the quantified query. The learner
// synthesizes boxes of chocolates, the (simulated) user accepts or
// rejects each box, and the exact query comes out — then runs over a
// store of a hundred boxes.
//
//	go run ./examples/chocolates
package main

import (
	"fmt"
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/nested"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

func main() {
	// The user's propositions (Fig 1): p1 isDark, p2 hasFilling,
	// p3 origin = Madagascar, over Box(Chocolate(...)).
	ps := nested.ChocolatePropositions()
	u := ps.Universe()
	fmt.Println("propositions:")
	for i, p := range ps.Props {
		fmt.Printf("  x%d: %s\n", i+1, p)
	}

	// The Fig 1 boxes and their Boolean abstraction.
	d := nested.Fig1Dataset()
	fmt.Println("\nFig 1 boxes in the Boolean domain:")
	for _, o := range d.Objects {
		fmt.Printf("  %-16s -> %s\n", o.Name, ps.AbstractObject(o).Format(u))
	}

	// The intended query (1) of §2: every chocolate is dark, and some
	// chocolate is filled and from Madagascar.
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	fmt.Println("\nintended query:", intended)

	// The simulated user never sees Boolean tuples: each membership
	// question is synthesized into a concrete box of chocolates first.
	asked := 0
	user := oracle.Func(func(s boolean.Set) bool {
		asked++
		box, err := ps.ConcretizeQuestion(fmt.Sprintf("sample #%d", asked), s)
		if err != nil {
			panic(err)
		}
		verdict := intended.Eval(ps.AbstractObject(box))
		if asked <= 2 {
			fmt.Println()
			fmt.Print(nested.FormatObject(ps.Schema, box))
			fmt.Printf("  -> user says: %v\n", verdictWord(verdict))
		}
		return verdict
	})

	learned, stats := learn.Run(u, user)
	fmt.Printf("\nlearned after %d questions: %s\n", stats.Total(), learned)
	fmt.Println("equivalent to intent:", learned.Equivalent(intended))

	// Run the learned query over a random store; prefer real
	// chocolates from the store when showing results.
	rng := rand.New(rand.NewSource(7))
	store := nested.RandomChocolates(rng, 100, 5)
	answers, err := nested.Execute(learned, ps, store)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nthe store has 100 boxes; %d match the query:\n", len(answers))
	for i, box := range answers {
		if i == 2 {
			fmt.Printf("  … and %d more\n", len(answers)-2)
			break
		}
		fmt.Print(nested.FormatObject(ps.Schema, box))
	}
}

func verdictWord(v bool) string {
	if v {
		return "answer (I'd buy this box)"
	}
	return "non-answer (take it away)"
}
