package exp

import (
	"math"
	"math/rand"

	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/stats"
	"qhorn/internal/verify"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Name:  "qhorn1-scaling",
		Paper: "Theorem 3.1, Lemmas 3.2–3.3",
		Claim: "qhorn-1 queries are learnable with O(n lg n) membership questions; the serial baseline needs O(n²)",
		Run:   runQhorn1Scaling,
	})
	register(Experiment{
		ID:    "E2",
		Name:  "universal-scaling",
		Paper: "Theorem 3.5",
		Claim: "the θ universal Horn expressions of a head are learnable with O(n^θ) questions",
		Run:   runUniversalScaling,
	})
	register(Experiment{
		ID:    "E3",
		Name:  "existential-scaling",
		Paper: "Theorems 3.8 and 3.9",
		Claim: "k existential conjunctions are learnable with O(k·n·lg n) questions against an Ω(nk) information bound",
		Run:   runExistentialScaling,
	})
	register(Experiment{
		ID:    "E11",
		Name:  "learn-vs-verify",
		Paper: "§4 motivation",
		Claim: "verifying a query takes O(k) questions versus O(n^(θ+1) + k·n·lg n) for learning it",
		Run:   runLearnVsVerify,
	})
}

// runQhorn1Scaling measures the qhorn-1 learner's question counts by
// phase across n, against the serial baseline and the n lg n
// reference curve.
func runQhorn1Scaling(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("qhorn1-scaling")
	sizes := []int{8, 12, 16, 24, 32, 48, 64}
	if cfg.Quick {
		sizes = []int{8, 16, 32}
	}
	t := stats.NewTable(header(e),
		"n", "questions (mean)", "head", "body", "existential",
		"serial baseline", "n·lg n", "questions / (n·lg n)")
	var xs, ys, naives []float64
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		var totals, heads, bodiesQ, exists, naiveTotals []int
		for i := 0; i < cfg.Trials; i++ {
			// Small parts give k = Θ(n), the regime where the serial
			// baseline pays its quadratic cost.
			target := query.GenQhorn1Sized(rng, n, 4)
			_, st := learn.Run(target.U, oracle.Target(target))
			totals = append(totals, st.Total())
			heads = append(heads, st.HeadQuestions)
			bodiesQ = append(bodiesQ, st.BodyQuestions)
			exists = append(exists, st.ExistentialQuestions)
			_, nst := learn.Run(target.U, oracle.Target(target), run.WithNaiveSearch())
			naiveTotals = append(naiveTotals, nst.Total())
		}
		mean := stats.SummarizeInts(totals).Mean
		naive := stats.SummarizeInts(naiveTotals).Mean
		nlgn := float64(n) * math.Log2(float64(n))
		t.AddRow(n, mean,
			stats.SummarizeInts(heads).Mean,
			stats.SummarizeInts(bodiesQ).Mean,
			stats.SummarizeInts(exists).Mean,
			naive, nlgn, mean/nlgn)
		xs = append(xs, float64(n))
		ys = append(ys, mean)
		naives = append(naives, naive)
	}
	t.AddNote("growth exponent: learner %.2f (n lg n ⇒ ≈1.0–1.4), serial baseline %.2f (n² ⇒ ≈2.0)",
		stats.GrowthExponent(xs, ys), stats.GrowthExponent(xs, naives))
	return []*stats.Table{t}
}

// runUniversalScaling measures phase-2 questions of the
// role-preserving learner for θ ∈ {1,2,3} with body sizes scaling
// with n, so the measured growth shows the n^θ shape of Theorem 3.5.
func runUniversalScaling(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("universal-scaling")
	thetas := []int{1, 2, 3}
	sizes := []int{8, 12, 16, 20, 24}
	if cfg.Quick {
		sizes = []int{8, 12, 16}
	}
	t := stats.NewTable(header(e),
		"θ", "n", "universal questions (mean)", "max", "n^θ", "questions / n^θ")
	for _, theta := range thetas {
		var xs, ys []float64
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(1000*theta+n)))
			var qs []int
			for i := 0; i < cfg.Trials; i++ {
				// Bodies of exactly n/4 variables: the regime where
				// the |B1|×…×|Bθ| search roots show the n^θ shape.
				target := query.GenRolePreserving(rng, n, query.RPOptions{
					Heads:         1,
					BodiesPerHead: theta,
					MinBodySize:   maxInt(2, n/4),
					MaxBodySize:   maxInt(2, n/4),
					Conjs:         2,
					MaxConjSize:   n / 2,
				})
				_, st := learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
				qs = append(qs, st.BodyQuestions)
			}
			s := stats.SummarizeInts(qs)
			ref := math.Pow(float64(n), float64(theta))
			t.AddRow(theta, n, s.Mean, s.Max, ref, s.Mean/ref)
			xs = append(xs, float64(n))
			ys = append(ys, s.Mean)
		}
		t.AddNote("θ=%d growth exponent %.2f (claim ≤ %d)", theta, stats.GrowthExponent(xs, ys), theta)
	}
	return []*stats.Table{t}
}

// runExistentialScaling measures phase-3 questions of the lattice
// learner on conjunction-only targets: sweep n at fixed k and sweep k
// at fixed n, against the k·n·lg n upper bound and the nk/2
// information-theoretic lower bound.
func runExistentialScaling(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("existential-scaling")

	sweepN := stats.NewTable(header(e)+" — sweep n (k = 4)",
		"n", "existential questions (mean)", "k·n·lg n", "n·k/2 lower bound", "questions / (k·n·lg n)")
	sizes := []int{8, 12, 16, 24, 32}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	const k = 4
	var xs, ys []float64
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		var qs []int
		for i := 0; i < cfg.Trials; i++ {
			target := query.GenConjunctions(rng, n, k, n/2)
			_, st := learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
			qs = append(qs, st.ExistentialQuestions)
		}
		mean := stats.SummarizeInts(qs).Mean
		upper := float64(k) * float64(n) * math.Log2(float64(n))
		lower := float64(n) * float64(k) / 2
		sweepN.AddRow(n, mean, upper, lower, mean/upper)
		xs = append(xs, float64(n))
		ys = append(ys, mean)
	}
	sweepN.AddNote("growth exponent in n: %.2f (claim ≈ 1, up to the lg factor)", stats.GrowthExponent(xs, ys))

	sweepK := stats.NewTable(header(e)+" — sweep k (n = 16)",
		"k", "existential questions (mean)", "k·n·lg n", "questions / k")
	ks := []int{1, 2, 4, 6, 8}
	if cfg.Quick {
		ks = []int{1, 4}
	}
	const n16 = 16
	xs, ys = nil, nil
	for _, kk := range ks {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(100+kk)))
		var qs []int
		for i := 0; i < cfg.Trials; i++ {
			target := query.GenConjunctions(rng, n16, kk, n16/2)
			_, st := learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
			qs = append(qs, st.ExistentialQuestions)
		}
		mean := stats.SummarizeInts(qs).Mean
		upper := float64(kk) * float64(n16) * math.Log2(float64(n16))
		sweepK.AddRow(kk, mean, upper, mean/float64(kk))
		xs = append(xs, float64(kk))
		ys = append(ys, mean)
	}
	sweepK.AddNote("growth exponent in k: %.2f (claim ≈ 1)", stats.GrowthExponent(xs, ys))
	return []*stats.Table{sweepN, sweepK}
}

// runLearnVsVerify puts the same random queries through the learner
// and the verifier, reproducing the §4 motivation that verification
// is O(k) questions while learning is polynomial in n.
func runLearnVsVerify(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("learn-vs-verify")
	t := stats.NewTable(header(e),
		"n", "k (mean)", "learn questions", "verify questions", "learn / verify")
	sizes := []int{8, 12, 16, 24}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		var learnQ, verifyQ, ks []int
		for i := 0; i < cfg.Trials; i++ {
			target := query.GenRolePreserving(rng, n, query.RPOptions{
				Heads:         2,
				BodiesPerHead: 2,
				MaxBodySize:   3,
				Conjs:         3,
				MaxConjSize:   n / 2,
			})
			_, st := learn.Run(target.U, oracle.Target(target), run.WithAlgorithm(run.RolePreserving))
			learnQ = append(learnQ, st.Total())
			vs, err := verify.Build(target)
			if err != nil {
				panic(err)
			}
			verifyQ = append(verifyQ, len(vs.Questions))
			ks = append(ks, vs.Query.Size())
		}
		lm := stats.SummarizeInts(learnQ).Mean
		vm := stats.SummarizeInts(verifyQ).Mean
		t.AddRow(n, stats.SummarizeInts(ks).Mean, lm, vm, lm/vm)
	}
	t.AddNote("verification stays near-constant in n while learning grows: the point of §4")
	return []*stats.Table{t}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
