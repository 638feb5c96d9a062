package exp

import (
	"fmt"
	"math"
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/brute"
	"qhorn/internal/learn"
	"qhorn/internal/nested"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
	"qhorn/internal/verify"
)

func init() {
	register(Experiment{
		ID:    "E0",
		Name:  "summary",
		Paper: "all",
		Claim: "one-shot reproduction gate: every headline claim checked with a hard pass/fail verdict",
		Run:   runSummary,
	})
}

// runSummary executes a hard assertion per headline claim and reports
// PASS/FAIL, so a single command settles whether the reproduction
// holds on this machine.
func runSummary(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("summary")
	t := stats.NewTable(header(e), "claim", "check", "verdict")
	pass := func(claim, check string, ok bool) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(claim, check, verdict)
	}

	// Theorem 3.1: exact qhorn-1 learning within the n lg n budget.
	{
		rng := rand.New(rand.NewSource(cfg.Seed))
		ok := true
		for i := 0; i < cfg.Trials; i++ {
			n := 4 + rng.Intn(28)
			target := query.GenQhorn1Sized(rng, n, 4)
			c := oracle.Count(oracle.Target(target), nil)
			learned, _ := learn.Run(target.U, c)
			bound := int(6*float64(n)*math.Log2(float64(n))) + 6*n
			if !learned.Equivalent(target) || c.Questions > bound {
				ok = false
				break
			}
		}
		pass("Theorem 3.1", fmt.Sprintf("%d random qhorn-1 round trips within 6·n·lg n + 6n questions", cfg.Trials), ok)
	}

	// Theorems 3.5/3.8: exact role-preserving learning.
	{
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		ok := true
		for i := 0; i < cfg.Trials; i++ {
			n := 4 + rng.Intn(9)
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: rng.Intn(n / 2), BodiesPerHead: 1 + rng.Intn(2),
				MaxBodySize: 1 + rng.Intn(3), Conjs: rng.Intn(3), MaxConjSize: 1 + rng.Intn(n),
			})
			learned, _ := learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
			if !learned.Equivalent(target) {
				ok = false
				break
			}
		}
		pass("Theorems 3.5/3.8", fmt.Sprintf("%d random role-preserving round trips, exact", cfg.Trials), ok)
	}

	// §3.2.2 worked example: the learner ends with the paper's tuples.
	{
		u := boolean.MustUniverse(6)
		target := query.MustParse(u,
			"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
		learned, _ := learn.Run(u, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
		want := map[string]bool{"100110": true, "111001": true, "011110": true, "110011": true, "011011": true}
		conjs := learned.DominantConjunctions()
		ok := learned.Equivalent(target) && len(conjs) == len(want)
		for _, c := range conjs {
			if !want[u.Format(c)] {
				ok = false
			}
		}
		pass("§3.2.2 worked example", "distinguishing tuples match the paper's run", ok)
	}

	// Theorem 2.1: exactly 2^n − 1 questions forced.
	{
		u := boolean.MustUniverse(8)
		class := oracle.AliasClass(u)
		res, err := brute.Learn(class, oracle.NewAdversary(class), oracle.AliasQuestions(u))
		pass("Theorem 2.1", "alias adversary forces exactly 2^8 − 1 = 255 questions",
			err == nil && res.Questions == 255)
	}

	// Theorem 3.6: exactly class size − 1 questions forced.
	{
		u := boolean.MustUniverse(13)
		class := oracle.BodyClass(u, 3)
		adv := oracle.NewAdversary(class)
		pool := bodyLowerBoundQuestions(u, 3)
		res, err := brute.Learn(class, adv, pool)
		pass("Theorem 3.6", fmt.Sprintf("body adversary forces exactly %d questions", len(class)-1),
			err == nil && res.Questions == len(class)-1)
	}

	// Theorem 4.2: exhaustive completeness on two variables.
	{
		u := boolean.MustUniverse(2)
		queries := query.AllQueries(u)
		ok := true
		for _, given := range queries {
			vs, err := verify.Build(given)
			if err != nil {
				ok = false
				break
			}
			for _, intended := range queries {
				if vs.RunWith(oracle.Target(intended)).Correct != given.Equivalent(intended) {
					ok = false
				}
			}
		}
		pass("Theorem 4.2", fmt.Sprintf("all %d × %d two-variable pairs detected correctly", len(queries), len(queries)), ok)
	}

	// §4.2: the pinned verification set is self-consistent with 16
	// questions and the paper's A1.
	{
		u := boolean.MustUniverse(6)
		q := query.MustParse(u,
			"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
		vs, err := verify.Build(q)
		ok := err == nil && vs.SelfConsistent()
		if ok {
			wantA1 := boolean.MustParseSet(u, "{111001, 011110, 110011, 011011, 100110}")
			found := false
			for _, question := range vs.Questions {
				if question.Kind == verify.A1 && question.Set.Equal(wantA1) {
					found = true
				}
			}
			ok = found
		}
		pass("§4.2 worked example", "verification set self-consistent with the paper's A1", ok)
	}

	// Fig 1: the chocolate abstraction.
	{
		ps := nested.ChocolatePropositions()
		d := nested.Fig1Dataset()
		u := ps.Universe()
		s1 := ps.AbstractObject(d.Objects[0])
		s2 := ps.AbstractObject(d.Objects[1])
		ok := s1.Equal(boolean.MustParseSet(u, "{111, 100, 110}")) &&
			s2.Equal(boolean.MustParseSet(u, "{110, 010}"))
		intro := query.MustParse(u, "∀x1 ∃x2x3")
		matches, err := nested.Execute(intro, ps, d)
		ok = ok && err == nil && len(matches) == 1 && matches[0].Name == "Global Ground"
		pass("Fig 1 / §2", "chocolate abstraction and query (1) select Global Ground only", ok)
	}
	return []*stats.Table{t}
}
