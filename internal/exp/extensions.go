package exp

import (
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/pac"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Name:  "revision",
		Paper: "§6 future work (revision)",
		Claim: "a query close to the intended one is corrected with far fewer questions than learning from scratch",
		Run:   runRevision,
	})
	register(Experiment{
		ID:    "E14",
		Name:  "pac-learning",
		Paper: "§6 future work (PAC)",
		Claim: "random labeled examples learn the query approximately; error falls with sample size",
		Run:   runPAC,
	})
	register(Experiment{
		ID:    "E15",
		Name:  "noisy-amendment",
		Paper: "§5 (noisy users)",
		Claim: "with a response history, amending a mistaken answer recovers the exact query at the cost of the replay suffix only",
		Run:   runNoisyAmendment,
	})
}

// runRevision edits random queries by a controlled number of
// expressions and compares revision cost against full re-learning,
// bucketed by the paper's distinguishing-tuple distance.
func runRevision(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("revision")
	t := stats.NewTable(header(e),
		"edits", "distance (mean)", "revise questions", "learn questions", "revise / learn", "escalations")
	const n = 12
	editCounts := []int{0, 1, 2, 4}
	if cfg.Quick {
		editCounts = []int{0, 1}
	}
	for _, edits := range editCounts {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(edits)))
		var reviseQ, learnQ, dists []int
		escalations := 0
		for i := 0; i < cfg.Trials; i++ {
			intended := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 2, BodiesPerHead: 1, MaxBodySize: 3, Conjs: 3, MaxConjSize: 5,
			})
			given := query.Mutate(rng, intended, edits)
			res, err := revise.Revise(given, oracle.Target(intended))
			if err != nil {
				panic(err)
			}
			if !res.Revised.Equivalent(intended) {
				panic("revision produced wrong query")
			}
			if res.Escalated {
				escalations++
			}
			reviseQ = append(reviseQ, res.Questions())
			c := oracle.Count(oracle.Target(intended), nil)
			learn.Run(intended.U, c, run.WithAlgorithm(run.RolePreserving))
			learnQ = append(learnQ, c.Questions)
			dists = append(dists, revise.Distance(given, intended))
		}
		rm := stats.SummarizeInts(reviseQ).Mean
		lm := stats.SummarizeInts(learnQ).Mean
		t.AddRow(edits, stats.SummarizeInts(dists).Mean, rm, lm, rm/lm, escalations)
	}
	t.AddNote("0 edits = pure verification: the O(k) floor of §4")
	return []*stats.Table{t}
}

// runPAC measures hypothesis error against sample size under the
// boundary distribution.
func runPAC(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("pac-learning")
	t := stats.NewTable(header(e),
		"samples m", "positives (mean)", "error (mean)", "error (max)", "runs with error ≤ 0.05")
	sizes := []int{10, 30, 100, 300, 1000}
	if cfg.Quick {
		sizes = []int{10, 100}
	}
	const n = 6
	for _, m := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(m)))
		var errs []float64
		var positives []int
		good := 0
		for i := 0; i < cfg.Trials; i++ {
			u := boolean.MustUniverse(n)
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3,
			})
			train := pac.NewBoundarySampler(target, rng, 2)
			h, st := pac.Learn(u, oracle.Target(target), train, m, pac.Params{})
			test := pac.NewBoundarySampler(target, rand.New(rand.NewSource(cfg.Seed+int64(1000+i))), 2)
			err := pac.Error(h, target, test, 1000)
			errs = append(errs, err)
			positives = append(positives, st.Positives)
			if err <= 0.05 {
				good++
			}
		}
		s := stats.Summarize(errs)
		t.AddRow(m, stats.SummarizeInts(positives).Mean, s.Mean, s.Max,
			stats.FormatFloat(float64(good))+"/"+stats.FormatFloat(float64(cfg.Trials)))
	}
	t.AddNote("most-specific hypothesis from positive examples; error measured on 1000 fresh draws from the same distribution")
	return []*stats.Table{t}
}

// runNoisyAmendment simulates a user who misanswers one question,
// reviews the history, fixes it, and re-runs the learner.
func runNoisyAmendment(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("noisy-amendment")
	t := stats.NewTable(header(e),
		"n", "trials", "lie corrupted result", "recovered after amendment", "replayed questions (mean)", "new questions (mean)")
	sizes := []int{4, 6, 8}
	if cfg.Quick {
		sizes = []int{4}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		corrupted, recovered := 0, 0
		var replayed, fresh []int
		for i := 0; i < cfg.Trials; i++ {
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 1, BodiesPerHead: 1, MaxBodySize: 2, Conjs: 2, MaxConjSize: 3,
			})
			truth := oracle.Target(target)
			lieAt := 1 + rng.Intn(10)
			asked := 0
			liar := oracle.Func(func(q boolean.Set) bool {
				asked++
				a := truth.Ask(q)
				if asked == lieAt {
					return !a
				}
				return a
			})
			s := session.New(liar)
			first, _ := learn.Run(target.U, s, run.WithAlgorithm(run.RolePreserving))
			if first.Equivalent(target) {
				continue // lie was harmless
			}
			corrupted++
			for j, entry := range s.Entries() {
				if truth.Ask(entry.Question) != entry.Answer {
					if err := s.Amend(j); err != nil {
						panic(err)
					}
				}
			}
			historyBefore := s.Len()
			s.ResetRun()
			again, _ := learn.Run(target.U, s, run.WithAlgorithm(run.RolePreserving))
			if again.Equivalent(target) {
				recovered++
			}
			fresh = append(fresh, s.LiveQuestions)
			replayed = append(replayed, historyBefore)
		}
		t.AddRow(n, cfg.Trials, corrupted, recovered,
			stats.SummarizeInts(replayed).Mean, stats.SummarizeInts(fresh).Mean)
	}
	t.AddNote("replayed questions are answered from the corrected history at zero user cost (§5)")
	return []*stats.Table{t}
}
