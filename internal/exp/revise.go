package exp

import (
	"math/rand"

	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E26",
		Name:  "revise",
		Paper: "§5 amendment + §6 revision (docs/SERVICE.md fast path)",
		Claim: "replaying a settled session through revision repairs a one-clause target drift with ≥30% fewer questions than relearning cold",
		Run:   runReviseReplay,
	})
}

// runReviseReplay measures the qhornd amendment fast path end to end,
// without the HTTP in the way: learn a target with full history, drift
// the target by one clause, amend the recorded answers the drift
// invalidated (the §5 loop), and revise the prior learned query over
// the replayed history — against relearning the drifted target from
// nothing. Warm questions are only the live ones (replays are free);
// the correctness asserts run inside the experiment, so a wrong
// revision fails the experiment, not just a table row.
func runReviseReplay(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("revise")
	t := stats.NewTable(header(e)+" — one-clause-drift replay, warm revision vs cold relearn",
		"n", "history (mean)", "cold questions", "warm questions", "question speedup",
		"questions saved", "escalations")
	sizes := []int{8, 10, 12}
	if cfg.Quick {
		sizes = []int{8}
	}
	opts := query.RPOptions{Heads: 2, BodiesPerHead: 1, MaxBodySize: 3, Conjs: 3, MaxConjSize: 5}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		var histLens, coldQs, warmQs []int
		escalations := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			// The original target and a one-clause drift of it; harmless
			// drifts (equivalent queries) are redrawn so every trial
			// actually damages the prior result.
			original := query.GenRolePreserving(rng, n, opts)
			drifted := query.Mutate(rng, original, 1)
			for attempts := 0; drifted.Equivalent(original); attempts++ {
				if attempts > 100 {
					panic("exp: revise: no inequivalent one-clause drift found")
				}
				drifted = query.Mutate(rng, original, 1)
			}

			// Session 1: learn the original, keeping the full history.
			hist := session.New(oracle.Target(original))
			prior, _ := learn.Run(original.U, hist, run.WithAlgorithm(run.RolePreserving))

			// The drift arrives: recorded answers the drifted target
			// would give differently are amended, and the history
			// re-inners onto the drifted oracle — exactly how a qhornd
			// session replays after its user's world changed.
			driftedOracle := oracle.Target(drifted)
			if err := hist.AmendAll(hist.InconsistentWith(driftedOracle.Ask)); err != nil {
				panic(err)
			}
			enc, err := hist.EncodeJSON(original.U)
			if err != nil {
				panic(err)
			}
			warmHist, _, err := session.DecodeJSON(enc, driftedOracle)
			if err != nil {
				panic(err)
			}

			// Warm: revise the prior learned query over the replayed
			// history; only never-recorded questions go live.
			res, err := revise.Revise(prior, warmHist)
			if err != nil {
				panic(err)
			}
			if !res.Revised.Equivalent(drifted) {
				panic("exp: revise: revision produced the wrong query")
			}
			if res.Escalated {
				escalations++
			}
			warmQs = append(warmQs, warmHist.LiveQuestions)

			// Cold: relearn the drifted target from nothing.
			c := oracle.Count(driftedOracle, nil)
			cold, _ := learn.Run(drifted.U, c, run.WithAlgorithm(run.RolePreserving))
			if !cold.Equivalent(drifted) {
				panic("exp: revise: cold relearn produced the wrong query")
			}
			coldQs = append(coldQs, c.Questions)
			histLens = append(histLens, hist.Len())
		}
		cq := stats.SummarizeInts(coldQs).Mean
		wq := stats.SummarizeInts(warmQs).Mean
		t.AddRow(n, stats.SummarizeInts(histLens).Mean, cq, wq, cq/wq,
			stats.FormatFloat((1-wq/cq)*100)+"%", escalations)
	}
	t.AddNote("warm questions are the live (non-replayed) questions of a revision over the amended history; cold questions relearn the drifted target from nothing; question speedup is cold/warm")
	return []*stats.Table{t}
}
