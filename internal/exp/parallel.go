package exp

import (
	"math/rand"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E22",
		Name:  "parallel",
		Paper: "§2.1.2 (user latency) + docs/PARALLELISM.md",
		Claim: "batching independent questions cuts learning wall time near-linearly in workers while asking exactly the serial questions",
		Run:   runParallel,
	})
}

// runParallel measures the parallel batched question engine against a
// latency-simulating user: each answer costs a fixed think time, the
// dominant cost of any interactive session. For each worker count the
// serial and the batched learner run on the same targets; the engine's
// determinism contract — identical question counts — is asserted on
// every trial, so the speedup column never trades correctness for wall
// time.
func runParallel(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	reg := cfg.registry()
	e, _ := ByName("parallel")

	const n = 10
	delay := 200 * time.Microsecond
	workerSweep := []int{1, 2, 4, 8}
	if cfg.Quick {
		delay = 50 * time.Microsecond
		workerSweep = []int{1, 4}
	}
	if cfg.Parallel > 0 {
		workerSweep = []int{cfg.Parallel}
	}

	t := stats.NewTable(header(e),
		"class", "workers", "questions", "serial ms", "parallel ms", "speedup")
	type learner struct {
		alg run.Algorithm
		gen func(rng *rand.Rand) query.Query
	}
	learners := []learner{
		{
			alg: run.Qhorn1,
			gen: func(rng *rand.Rand) query.Query { return query.GenQhorn1(rng, n) },
		},
		{
			alg: run.RolePreserving,
			gen: func(rng *rand.Rand) query.Query {
				return query.GenRolePreserving(rng, n, query.RPOptions{
					Heads: 3, BodiesPerHead: 2, MaxBodySize: 3, Conjs: 2, MaxConjSize: 4,
				})
			},
		},
	}
	for _, l := range learners {
		for _, workers := range workerSweep {
			rng := rand.New(rand.NewSource(cfg.Seed))
			var questions, serialMS, parallelMS []float64
			for trial := 0; trial < cfg.Trials; trial++ {
				target := l.gen(rng)
				slowUser := func() oracle.Oracle {
					inner := oracle.Target(target)
					return oracle.Func(func(s boolean.Set) bool {
						time.Sleep(delay)
						return inner.Ask(s)
					})
				}

				sc := oracle.Count(slowUser(), reg)
				start := time.Now()
				sq, _ := learn.Run(target.U, sc, run.WithAlgorithm(l.alg))
				serialMS = append(serialMS, float64(time.Since(start).Microseconds())/1000)

				pc := oracle.Count(slowUser(), reg)
				start = time.Now()
				pq, _ := learn.Run(target.U, oracle.Parallel(pc, workers, reg),
					run.WithAlgorithm(l.alg), run.WithBatch())
				parallelMS = append(parallelMS, float64(time.Since(start).Microseconds())/1000)

				if !pq.Equivalent(sq) {
					panic("parallel learner diverged from serial output")
				}
				if pc.Questions != sc.Questions {
					panic("parallel learner broke the question-count contract")
				}
				questions = append(questions, float64(sc.Questions))
			}
			qm := stats.Summarize(questions).Mean
			sm := stats.Summarize(serialMS).Mean
			pm := stats.Summarize(parallelMS).Mean
			t.AddRow(l.alg.String(), workers, qm, sm, pm, sm/pm)
		}
	}
	t.AddNote("simulated user think time per answer: %v; question counts asserted identical serial vs parallel on every trial", delay)
	return []*stats.Table{t}
}
