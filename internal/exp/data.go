package exp

import (
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/nested"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Name:  "data-domain",
		Paper: "Fig 1, §2, §5",
		Claim: "Boolean membership questions round-trip through the data domain; learned queries execute correctly over real objects",
		Run:   runDataDomain,
	})
}

// runDataDomain reproduces the chocolate-shop pipeline end to end:
// abstract the Fig 1 boxes, learn the introduction's query from a
// simulated user who classifies concrete boxes, and execute it over a
// random store of boxes.
func runDataDomain(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("data-domain")
	ps := nested.ChocolatePropositions()
	u := ps.Universe()

	// Table 1: the Fig 1 Boolean abstraction.
	fig1 := stats.NewTable(header(e)+" — Fig 1 abstraction", "box", "chocolate", "isDark", "hasFilling", "fromMadagascar")
	d := nested.Fig1Dataset()
	for _, o := range d.Objects {
		for i, tup := range o.Tuples {
			bt := ps.Abstract(tup)
			fig1.AddRow(o.Name, i+1, bt.Has(0), bt.Has(1), bt.Has(2))
		}
	}

	// Table 2: learning through the data domain.
	intended := query.MustParse(u, "∀x1 ∃x2x3")
	questions := 0
	run := stats.NewTable(header(e)+" — end-to-end learning",
		"intended query", "learned query", "equivalent", "questions", "boxes matched / 200")
	simulated := oracle.Func(func(s boolean.Set) bool {
		questions++
		obj, err := ps.ConcretizeQuestion("probe", s)
		if err != nil {
			panic(err)
		}
		return intended.Eval(ps.AbstractObject(obj))
	})
	learned, _ := learn.Run(u, simulated)
	rng := rand.New(rand.NewSource(cfg.Seed))
	store := nested.RandomChocolates(rng, 200, 6)
	matches, err := nested.Execute(learned, ps, store)
	if err != nil {
		panic(err)
	}
	run.AddRow(intended.String(), learned.String(), learned.Equivalent(intended), questions, len(matches))
	return []*stats.Table{fig1, run}
}
