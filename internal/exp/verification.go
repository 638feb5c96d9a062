package exp

import (
	"fmt"
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/stats"
	"qhorn/internal/verify"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Name:  "verification-cost",
		Paper: "Fig 6, §4",
		Claim: "a verification set has O(k) questions; question sizes follow Fig 6",
		Run:   runVerificationCost,
	})
	register(Experiment{
		ID:    "E8",
		Name:  "fig7",
		Paper: "Fig 7",
		Claim: "verification sets of every role-preserving query on two variables",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "E9",
		Name:  "fig8",
		Paper: "Fig 8",
		Claim: "some verification question detects every semantic difference between two-variable queries",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "E10",
		Name:  "worked-example",
		Paper: "§4.2",
		Claim: "the verification set of the paper's six-variable example query",
		Run:   runWorkedExample,
	})
}

// runVerificationCost sweeps query size k and reports question counts
// per family plus tuples per question, checking the O(k) claim.
func runVerificationCost(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("verification-cost")
	t := stats.NewTable(header(e),
		"k (mean)", "n", "questions", "A1", "A2", "A3", "A4", "N1", "N2", "max tuples/question")
	type shape struct {
		heads, bodies, conjs int
	}
	shapes := []shape{
		{1, 1, 1}, {1, 1, 3}, {2, 1, 3}, {2, 2, 3}, {3, 2, 5}, {4, 2, 6},
	}
	if cfg.Quick {
		shapes = shapes[:3]
	}
	const n = 16
	var xs, ys []float64
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(sh.heads*100+sh.conjs)))
		var ks, total, maxTuples []int
		counts := map[verify.Kind][]int{}
		for i := 0; i < cfg.Trials; i++ {
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads:         sh.heads,
				BodiesPerHead: sh.bodies,
				MaxBodySize:   3,
				Conjs:         sh.conjs,
				MaxConjSize:   n / 2,
			})
			vs, err := verify.Build(target)
			if err != nil {
				panic(err)
			}
			ks = append(ks, vs.Query.Size())
			total = append(total, len(vs.Questions))
			perKind := map[verify.Kind]int{}
			maxT := 0
			for _, q := range vs.Questions {
				perKind[q.Kind]++
				if q.Set.Size() > maxT {
					maxT = q.Set.Size()
				}
			}
			maxTuples = append(maxTuples, maxT)
			for _, kind := range []verify.Kind{verify.A1, verify.A2, verify.A3, verify.A4, verify.N1, verify.N2} {
				counts[kind] = append(counts[kind], perKind[kind])
			}
		}
		kMean := stats.SummarizeInts(ks).Mean
		qMean := stats.SummarizeInts(total).Mean
		t.AddRow(kMean, n, qMean,
			stats.SummarizeInts(counts[verify.A1]).Mean,
			stats.SummarizeInts(counts[verify.A2]).Mean,
			stats.SummarizeInts(counts[verify.A3]).Mean,
			stats.SummarizeInts(counts[verify.A4]).Mean,
			stats.SummarizeInts(counts[verify.N1]).Mean,
			stats.SummarizeInts(counts[verify.N2]).Mean,
			stats.SummarizeInts(maxTuples).Mean)
		xs = append(xs, kMean)
		ys = append(ys, qMean)
	}
	t.AddNote("growth exponent of questions in k: %.2f (claim ≈ 1)", stats.GrowthExponent(xs, ys))
	return []*stats.Table{t}
}

// runFig7 regenerates Fig 7: the verification set of every
// semantically distinct role-preserving query on two variables.
func runFig7(cfg Config) []*stats.Table {
	e, _ := ByName("fig7")
	u := boolean.MustUniverse(2)
	t := stats.NewTable(header(e), "query", "kind", "expected", "question")
	for _, q := range query.AllQueries(u) {
		vs, err := verify.Build(q)
		if err != nil {
			panic(err)
		}
		for _, question := range vs.Questions {
			expect := "non-answer"
			if question.Expect {
				expect = "answer"
			}
			t.AddRow(q.String(), string(question.Kind), expect, question.Set.Format(u))
		}
	}
	t.AddNote("%d distinct role-preserving queries on two variables", len(query.AllQueries(u)))
	return []*stats.Table{t}
}

// runFig8 regenerates Fig 8: for every ordered (intended, given) pair
// of two-variable queries, the verification-set question family that
// surfaces the difference.
func runFig8(cfg Config) []*stats.Table {
	e, _ := ByName("fig8")
	u := boolean.MustUniverse(2)
	queries := query.AllQueries(u)
	cols := []string{"intended \\ given"}
	for _, g := range queries {
		cols = append(cols, g.String())
	}
	t := stats.NewTable(header(e), cols...)
	for _, intended := range queries {
		row := []interface{}{intended.String()}
		for _, given := range queries {
			vs, err := verify.Build(given)
			if err != nil {
				panic(err)
			}
			res := vs.RunWith(oracle.Target(intended))
			switch {
			case given.Equivalent(intended):
				if !res.Correct {
					row = append(row, "FALSE-ALARM")
				} else {
					row = append(row, "≡")
				}
			case res.Correct:
				row = append(row, "MISSED")
			default:
				row = append(row, string(res.Disagreements[0].Question.Kind))
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("≡ marks equivalent pairs; any MISSED or FALSE-ALARM cell would falsify Theorem 4.2")
	return []*stats.Table{t}
}

// runWorkedExample prints the verification set of the §4.2 example
// query with the classification each question expects.
func runWorkedExample(cfg Config) []*stats.Table {
	e, _ := ByName("worked-example")
	u := boolean.MustUniverse(6)
	q := query.MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	vs, err := verify.Build(q)
	if err != nil {
		panic(err)
	}
	t := stats.NewTable(header(e), "kind", "about", "expected", "tuples", "question")
	for _, question := range vs.Questions {
		expect := "non-answer"
		if question.Expect {
			expect = "answer"
		}
		t.AddRow(string(question.Kind), question.About, expect,
			question.Set.Size(), question.Set.Format(u))
	}
	t.AddNote("query: %s", q)
	t.AddNote("self-consistent: %v", vs.SelfConsistent())
	t.AddNote(fmt.Sprintf("%d questions total", len(vs.Questions)))
	return []*stats.Table{t}
}
