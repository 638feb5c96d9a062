// Benchmarks, one per experiment row of DESIGN.md. Each reports
// questions/op — the paper's complexity measure — alongside the usual
// time and allocation figures. Regenerate the full tables with
// cmd/qhornexp; these benches pin the per-run cost of every code
// path the tables exercise.
package qhorn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/brute"
	"qhorn/internal/deep"
	"qhorn/internal/difffuzz"
	"qhorn/internal/learn"
	"qhorn/internal/nested"
	"qhorn/internal/oracle"
	"qhorn/internal/pac"
	"qhorn/internal/query"
	"qhorn/internal/revise"
	"qhorn/internal/run"
	"qhorn/internal/session"
	"qhorn/internal/verify"
)

// E1: qhorn-1 learning at growing n.
func BenchmarkQhorn1Learn(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			target := query.GenQhorn1Sized(rng, n, 4)
			o := oracle.Target(target)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := learn.Run(target.U, o)
				questions = st.Total()
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E1 baseline: the serial O(n²) strategy.
func BenchmarkQhorn1NaiveLearn(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			target := query.GenQhorn1Sized(rng, n, 4)
			o := oracle.Target(target)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := learn.Run(target.U, o, run.WithNaiveSearch())
				questions = st.Total()
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E2: universal Horn body search at growing causal density θ.
func BenchmarkLearnUniversal(b *testing.B) {
	for _, theta := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("theta=%d", theta), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			const n = 16
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 1, BodiesPerHead: theta,
				MinBodySize: n / 4, MaxBodySize: n / 4,
				Conjs: 2, MaxConjSize: n / 2,
			})
			o := oracle.Target(target)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := learn.Run(target.U, o, run.WithAlgorithm(run.RolePreserving))
				questions = st.BodyQuestions
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E3: existential conjunction lattice search at growing k.
func BenchmarkLearnExistential(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			const n = 16
			target := query.GenConjunctions(rng, n, k, n/2)
			o := oracle.Target(target)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := learn.Run(target.U, o, run.WithAlgorithm(run.RolePreserving))
				questions = st.ExistentialQuestions
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E4: the Theorem 2.1 adversary forcing 2^n − 1 questions.
func BenchmarkAliasAdversary(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := boolean.MustUniverse(n)
			class := oracle.AliasClass(u)
			pool := oracle.AliasQuestions(u)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv := oracle.NewAdversary(class)
				res, err := brute.Learn(class, adv, pool)
				if err != nil {
					b.Fatal(err)
				}
				questions = res.Questions
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E5: the Lemma 3.4 adversary with 2-tuple questions.
func BenchmarkPairAdversary(b *testing.B) {
	for _, n := range []int{12, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := boolean.MustUniverse(n)
			class := oracle.HeadPairClass(u)
			pool := oracle.HeadPairQuestions(u, 2)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv := oracle.NewAdversary(class)
				res, err := brute.Learn(class, adv, pool)
				if err != nil {
					b.Fatal(err)
				}
				questions = res.Questions
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E6: the Theorem 3.6 adversary at θ = 3.
func BenchmarkBodyAdversary(b *testing.B) {
	u := boolean.MustUniverse(13) // 12 body variables + head
	class := oracle.BodyClass(u, 3)
	// Pool: one question per candidate Bθ combination, as in the
	// proof (see internal/exp).
	all := u.All()
	var pool []boolean.Set
	for _, q := range class {
		// The distinguishing question of each candidate's Bθ.
		dom := q.DominantUniversals()
		bTheta := dom[len(dom)-1].Body
		for _, e := range dom {
			if e.Body.Count() > bTheta.Count() {
				bTheta = e.Body
			}
		}
		pool = append(pool, boolean.NewSet(all, bTheta))
	}
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := oracle.NewAdversary(class)
		res, err := brute.Learn(class, adv, pool)
		if err != nil {
			b.Fatal(err)
		}
		questions = res.Questions
	}
	b.ReportMetric(float64(questions), "questions/op")
}

// E7: verification-set construction at growing k.
func BenchmarkVerificationSet(b *testing.B) {
	for _, conjs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("conjs=%d", conjs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			const n = 16
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads: 2, BodiesPerHead: 2, MaxBodySize: 3,
				Conjs: conjs, MaxConjSize: n / 2,
			})
			qs := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs, err := verify.Build(target)
				if err != nil {
					b.Fatal(err)
				}
				qs = len(vs.Questions)
			}
			b.ReportMetric(float64(qs), "questions/op")
		})
	}
}

// E8: regenerating Fig 7 (all two-variable verification sets).
func BenchmarkFig7(b *testing.B) {
	u := boolean.MustUniverse(2)
	queries := query.AllQueries(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := verify.Build(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E9: regenerating Fig 8 (all two-variable verification pairs).
func BenchmarkFig8(b *testing.B) {
	u := boolean.MustUniverse(2)
	queries := query.AllQueries(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, given := range queries {
			vs, err := verify.Build(given)
			if err != nil {
				b.Fatal(err)
			}
			for _, intended := range queries {
				vs.RunWith(oracle.Target(intended))
			}
		}
	}
}

// E10: the §4.2 worked example, learning plus verification.
func BenchmarkWorkedExample(b *testing.B) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	o := oracle.Target(target)
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learned, st := learn.Run(u, o, run.WithAlgorithm(run.RolePreserving))
		if _, err := verify.Build(learned); err != nil {
			b.Fatal(err)
		}
		questions = st.Total()
	}
	b.ReportMetric(float64(questions), "questions/op")
}

// E11: verification vs learning cost on the same query.
func BenchmarkLearnVsVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 16
	target := query.GenRolePreserving(rng, n, query.RPOptions{
		Heads: 2, BodiesPerHead: 2, MaxBodySize: 3, Conjs: 3, MaxConjSize: n / 2,
	})
	o := oracle.Target(target)
	b.Run("learn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Run(target.U, o, run.WithAlgorithm(run.RolePreserving))
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := verify.Run(target, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E12: the data-domain round trip — synthesize a box for a Boolean
// question and execute a query over a store.
func BenchmarkDataDomain(b *testing.B) {
	ps := nested.ChocolatePropositions()
	u := ps.Universe()
	q := boolean.MustParseSet(u, "{111, 011, 100}")
	b.Run("concretize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ps.ConcretizeQuestion("probe", q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		rng := rand.New(rand.NewSource(6))
		store := nested.RandomChocolates(rng, 100, 6)
		intent := query.MustParse(u, "∀x1 ∃x2x3")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nested.Execute(intent, ps, store); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Micro-benchmarks for the primitives everything sits on.
func BenchmarkEval(b *testing.B) {
	u := boolean.MustUniverse(6)
	q := query.MustParse(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	s := boolean.MustParseSet(u, "{111001, 011110, 110011, 011011, 100110}")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Eval(s)
	}
}

func BenchmarkNormalize(b *testing.B) {
	u := boolean.MustUniverse(6)
	q := query.MustParse(u,
		"∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Normalize()
	}
}

// E13: revision cost by edit count.
func BenchmarkRevise(b *testing.B) {
	u := boolean.MustUniverse(10)
	intended := query.MustParse(u, "∀x1x2 → x9 ∀x3x4 → x10 ∃x5x6 ∃x7x8")
	cases := []struct {
		name  string
		given query.Query
	}{
		{"correct", intended},
		{"one-edit", query.MustParse(u, "∀x1x2 → x9 ∀x3x4 → x10 ∃x5x6 ∃x7x8 ∃x5x7")},
		{"two-edits", query.MustParse(u, "∀x1x2 → x9 ∃x5x6 ∃x6x7x8")},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			o := oracle.Target(intended)
			questions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := revise.Revise(tc.given, o)
				if err != nil {
					b.Fatal(err)
				}
				questions = res.Questions()
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E14: PAC learning at growing sample sizes.
func BenchmarkPACLearn(b *testing.B) {
	for _, m := range []int{30, 100, 300} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			u := boolean.MustUniverse(6)
			target := query.MustParse(u, "∀x1x2 → x5 ∃x3x4")
			o := oracle.Target(target)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				sampler := pac.NewBoundarySampler(target, rng, 2)
				pac.Learn(u, o, sampler, m, pac.Params{})
			}
		})
	}
}

// E15: session replay after an amendment.
func BenchmarkSessionReplay(b *testing.B) {
	u := boolean.MustUniverse(8)
	target := query.MustParse(u, "∀x1x2 → x7 ∃x3x4 ∃x5x6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := session.New(oracle.Target(target))
		learn.Run(u, s, run.WithAlgorithm(run.RolePreserving))
		s.ResetRun()
		learn.Run(u, s, run.WithAlgorithm(run.RolePreserving)) // full replay: zero live questions
		if s.LiveQuestions != 0 {
			b.Fatal("replay asked live questions")
		}
	}
}

// BenchmarkLearnRPSession is one role-preserving learn in process over
// a fresh interaction history, batched and counted, on random targets
// of 16 to 28 variables: the per-question path (question building,
// history lookup and record, target evaluation) with no transport.
func BenchmarkLearnRPSession(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var targets []query.Query
	var users []oracle.Oracle
	for n := 16; n <= 28; n++ {
		for range 2 {
			q := difffuzz.GenCase(rng, difffuzz.ClassRP, n, n).Hidden
			targets = append(targets, q)
			users = append(users, oracle.Target(q))
		}
	}
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(targets)
		s := session.New(users[j])
		learn.Run(targets[j].U, s, run.WithAlgorithm(run.RolePreserving), run.WithBatch(), run.WithCounter())
		questions += s.LiveQuestions
	}
	b.ReportMetric(float64(questions)/float64(b.N), "questions/op")
}

// E16: the learner with optimizations disabled.
func BenchmarkAblatedLearner(b *testing.B) {
	u := boolean.MustUniverse(12)
	rng := rand.New(rand.NewSource(9))
	target := query.GenRolePreserving(rng, 12, query.RPOptions{
		Heads: 2, BodiesPerHead: 2, MaxBodySize: 3, Conjs: 4, MaxConjSize: 6,
	})
	o := oracle.Target(target)
	for _, tc := range []struct {
		name string
		ab   learn.Ablations
	}{
		{"full", learn.Ablations{}},
		{"no-seeds", learn.Ablations{NoGuaranteeSeeds: true}},
		{"serial-prune", learn.Ablations{SerialPrune: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			questions := 0
			for i := 0; i < b.N; i++ {
				_, st := learn.Run(u, o, run.WithAlgorithm(run.RolePreserving), run.WithAblations(tc.ab))
				questions = st.Total()
			}
			b.ReportMetric(float64(questions), "questions/op")
		})
	}
}

// E17: deep-nesting evaluation.
func BenchmarkDeepEval(b *testing.B) {
	u := boolean.MustUniverse(4)
	q := deep.Query{U: u, Depth: 2, Exprs: []deep.Expr{
		{Prefix: []query.Quantifier{query.Forall, query.Exists}, Body: boolean.FromVars(0, 1), Head: query.NoHead},
		{Prefix: []query.Quantifier{query.Forall, query.Forall}, Body: boolean.FromVars(2), Head: 3},
	}}
	shelf := deep.Set(
		deep.Set(deep.Leaf(u.MustParse("1111")), deep.Leaf(u.MustParse("0011"))),
		deep.Set(deep.Leaf(u.MustParse("1101")), deep.Leaf(u.MustParse("1111"))),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Eval(shelf)
	}
}

// Data-domain extensions.
func BenchmarkSQLRender(b *testing.B) {
	ps := nested.ChocolatePropositions()
	q := query.MustParse(ps.Universe(), "∀x1 ∃x2x3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nested.SQL(q, ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	u := boolean.MustUniverse(6)
	q := query.MustParse(u, "∀x1x4 → x5 ∀x3x4 → x5 ∀x1x2 → x6 ∃x1x2x3 ∃x2x3x4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Classify()
	}
}

// Indexed vs direct execution over a 1000-box store.
func BenchmarkExecuteIndexedVsDirect(b *testing.B) {
	ps := nested.ChocolatePropositions()
	u := ps.Universe()
	rng := rand.New(rand.NewSource(10))
	store := nested.RandomChocolates(rng, 1000, 6)
	q := query.MustParse(u, "∀x1 ∃x2x3")
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nested.Execute(q, ps, store); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		ix, err := nested.NewIndex(ps, store)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sessionQuestions records the membership questions one qhorn1
// learning session asks its simulated user at n variables — the
// evaluation workload the compiled kernel exists for: every question
// of every simulated session passes through Target's evaluator.
func sessionQuestions(n int) (query.Query, []boolean.Set) {
	u := boolean.MustUniverse(n)
	target := query.GenQhorn1(rand.New(rand.NewSource(7)), n)
	tr := oracle.Record(oracle.Target(target))
	learn.Run(u, tr, run.WithAlgorithm(run.Qhorn1))
	qs := make([]boolean.Set, len(tr.Entries))
	for i, e := range tr.Entries {
		qs[i] = e.Question
	}
	return target, qs
}

// BenchmarkEvalInterpreted replays a recorded qhorn1 session's
// questions (n=24) through the tree-walking Query.Eval — the
// before side of the kernel comparison.
func BenchmarkEvalInterpreted(b *testing.B) {
	target, qs := sessionQuestions(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range qs {
			target.Eval(s)
		}
	}
	b.ReportMetric(float64(len(qs)), "questions/op")
}

// BenchmarkEvalCompiled replays the identical question workload
// through the compiled kernel. The CI bench-smoke job records both
// benchmarks for benchstat; the kernel must stay allocation-free
// (gated by TestCompiledEvalZeroAllocs).
func BenchmarkEvalCompiled(b *testing.B) {
	target, qs := sessionQuestions(24)
	c := query.Compile(target)
	for _, s := range qs {
		if c.Eval(s) != target.Eval(s) {
			b.Fatal("compiled kernel disagrees with interpreter on a session question")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range qs {
			c.Eval(s)
		}
	}
	b.ReportMetric(float64(len(qs)), "questions/op")
}

// bruteBenchFixture is the E2-size harness the brute benchmarks share:
// the full candidate space over n=3 and the exhaustive question pool.
func bruteBenchFixture() (candidates []query.Query, pool []boolean.Set, targets []query.Query) {
	u := boolean.MustUniverse(3)
	candidates = query.AllQueries(u)
	pool = boolean.AllObjects(u)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		targets = append(targets, candidates[rng.Intn(len(candidates))])
	}
	return candidates, pool, targets
}

// BenchmarkBruteLearnSerial is the direct-evaluation baseline of E27:
// every step re-evaluates each remaining candidate on each pool
// question through the interpreter.
func BenchmarkBruteLearnSerial(b *testing.B) {
	candidates, pool, targets := bruteBenchFixture()
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := brute.LearnSerial(candidates, oracle.Target(targets[i%len(targets)]), pool)
		if err != nil {
			b.Fatal(err)
		}
		questions = res.Questions
	}
	b.ReportMetric(float64(questions), "questions/op")
}

// BenchmarkBruteLearnMatrix runs the same learns over the bitset
// answer matrix, built once and reused across runs — the cached path
// E27 and the difffuzz judge run. It asks exactly the questions of
// BenchmarkBruteLearnSerial (TestMatrixBitIdentical pins the
// identity).
func BenchmarkBruteLearnMatrix(b *testing.B) {
	candidates, pool, targets := bruteBenchFixture()
	m := brute.NewMatrix(candidates, pool, nil)
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Learn(oracle.Target(targets[i%len(targets)]))
		if err != nil {
			b.Fatal(err)
		}
		questions = res.Questions
	}
	b.ReportMetric(float64(questions), "questions/op")
}

// BenchmarkBruteMatrixBuild prices the one-time matrix construction the
// reuse pattern amortises: |candidates|·|pool| compiled evaluations
// fanned across the worker pool.
func BenchmarkBruteMatrixBuild(b *testing.B) {
	candidates, pool, _ := bruteBenchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brute.NewMatrix(candidates, pool, nil)
	}
}
