package exp

import (
	"math/rand"

	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Name:  "ablation",
		Paper: "§3.2.2 design choices",
		Claim: "guarantee-clause seeding and binary-search pruning each reduce the learner's question count",
		Run:   runAblation,
	})
}

// runAblation measures the role-preserving learner with each §3.2.2
// optimization disabled in turn.
func runAblation(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("ablation")
	t := stats.NewTable(header(e),
		"n", "full (mean questions)", "no guarantee seeds", "serial prune", "both off",
		"seeds save", "binary prune saves")
	sizes := []int{8, 12, 16}
	if cfg.Quick {
		sizes = []int{8}
	}
	variants := []learn.Ablations{
		{},
		{NoGuaranteeSeeds: true},
		{SerialPrune: true},
		{NoGuaranteeSeeds: true, SerialPrune: true},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		sums := make([]float64, len(variants))
		for i := 0; i < cfg.Trials; i++ {
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 2, BodiesPerHead: 2, MaxBodySize: 3, Conjs: 4, MaxConjSize: n / 2,
			})
			o := oracle.Target(target)
			for vi, ab := range variants {
				learned, st := learn.Run(target.U, o, run.WithAlgorithm(run.RolePreserving), run.WithAblations(ab))
				if !learned.Equivalent(target) {
					panic("ablated learner lost exactness")
				}
				sums[vi] += float64(st.Total())
			}
		}
		for vi := range sums {
			sums[vi] /= float64(cfg.Trials)
		}
		t.AddRow(n, sums[0], sums[1], sums[2], sums[3],
			stats.FormatFloat(sums[1]-sums[0])+" q", stats.FormatFloat(sums[2]-sums[0])+" q")
	}
	t.AddNote("every variant stays exact; the optimizations only save questions")
	return []*stats.Table{t}
}
