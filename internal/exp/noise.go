package exp

import (
	"fmt"
	"math/rand"

	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Name:  "noise-sensitivity",
		Paper: "§5 (noisy users)",
		Claim: "exact learning is brittle to response noise — the quantitative case for the §5 history/amendment mechanism",
		Run:   runNoiseSensitivity,
	})
}

// runNoiseSensitivity measures how often the exact learners still
// recover the target when each response flips independently with
// probability p.
func runNoiseSensitivity(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("noise-sensitivity")
	t := stats.NewTable(header(e),
		"flip probability p", "qhorn-1 exact (of trials)", "role-preserving exact (of trials)")
	ps := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.1}
	if cfg.Quick {
		ps = []float64{0, 0.05}
	}
	const n = 8
	for _, p := range ps {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(p*1000)))
		q1ok, rpok := 0, 0
		for i := 0; i < cfg.Trials; i++ {
			t1 := query.GenQhorn1Sized(rng, n, 4)
			noisy := oracle.Noisy(oracle.Target(t1), p, rng)
			if got, _ := learn.Run(t1.U, noisy); got.Equivalent(t1) {
				q1ok++
			}
			t2 := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 4,
			})
			noisy2 := oracle.Noisy(oracle.Target(t2), p, rng)
			if got, _ := learn.Run(t2.U, noisy2, run.WithAlgorithm(run.RolePreserving)); got.Equivalent(t2) {
				rpok++
			}
		}
		t.AddRow(fmt.Sprintf("%.3f", p),
			fmt.Sprintf("%d/%d", q1ok, cfg.Trials),
			fmt.Sprintf("%d/%d", rpok, cfg.Trials))
	}
	t.AddNote("a single flipped answer can corrupt the exact result — recovery is the job of the session/amendment machinery (E15)")
	return []*stats.Table{t}
}
