package exp

import (
	"math/rand"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/brute"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E27",
		Name:  "brute",
		Paper: "engineering (docs/PERFORMANCE.md)",
		Claim: "bit-sliced slab builds and cached answer matrices push brute-force cross-validation from n=3 to exhaustive n=4 and sampled n=5",
		Run:   runBrute,
	})
}

// runBrute measures the brute-force cross-validation stack end to end:
// the per-learn cost a difffuzz judge pays (fresh scalar build+learn,
// the pre-cache path, against one learn over the process-cached sliced
// matrix), the matrix build itself (scalar per-candidate kernel vs the
// bit-sliced slab kernel), and the sampled n=5 range where exhaustive
// enumeration is intractable. Every
// timed comparison asserts bit-identical behaviour in-run. `qhornexp
// -exp brute -json` writes the result as BENCH_brute.json.
func runBrute(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("brute")
	return []*stats.Table{
		bruteLearnTable(e, cfg),
		bruteBuildTable(e, cfg),
		bruteSampledTable(e, cfg),
	}
}

// ms converts a wall-clock duration into fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// bruteLearnTable is the headline per-learn comparison on exhaustive
// universes: what one brute cross-check costs through (a) the serial
// reference learner, (b) a freshly built scalar matrix — the judge path
// before this repo cached and bit-sliced the matrix — and (c) one learn
// over a prebuilt sliced matrix, the cached path difffuzz now runs.
// Question counts and learned queries are asserted identical across all
// three on every trial.
func bruteLearnTable(e Experiment, cfg Config) *stats.Table {
	t := stats.NewTable(header(e)+" — per-learn (exhaustive range)",
		"n", "candidates", "pool", "questions",
		"serial ms", "fresh scalar ms", "cached sliced ms", "per-learn speedup")
	reg := cfg.Metrics

	sweep := []int{2, 3, 4}
	if cfg.Quick {
		sweep = []int{2, 3}
	}
	for _, n := range sweep {
		u := boolean.MustUniverse(n)
		candidates := query.AllQueries(u)
		pool := boolean.AllObjects(u)
		rng := rand.New(rand.NewSource(cfg.Seed))
		trials := cfg.Trials
		if trials > 6 {
			trials = 6
		}
		if n >= 4 && trials > 3 {
			trials = 3 // the fresh scalar build is ~1.5 s per trial at n=4
		}

		cached := brute.NewMatrix(candidates, pool, brute.MatrixOptions{Registry: reg})
		var questions, serialMS, freshMS, cachedMS []float64
		for trial := 0; trial < trials; trial++ {
			target := candidates[rng.Intn(len(candidates))]

			sc := oracle.Count(oracle.Target(target), reg)
			start := time.Now()
			sres, serr := brute.LearnSerial(candidates, sc, pool)
			serialMS = append(serialMS, ms(time.Since(start)))

			fc := oracle.Count(oracle.Target(target), reg)
			start = time.Now()
			fres, ferr := brute.NewMatrix(candidates, pool, brute.MatrixOptions{Scalar: true, Registry: reg}).Learn(fc)
			freshMS = append(freshMS, ms(time.Since(start)))

			mc := oracle.Count(oracle.Target(target), reg)
			start = time.Now()
			mres, merr := cached.Learn(mc)
			cachedMS = append(cachedMS, ms(time.Since(start)))

			// In-run identity asserts: all three paths ask the same
			// questions and learn the same query.
			if (serr == nil) != (merr == nil) || (serr == nil) != (ferr == nil) {
				panic("exp: brute learner variants changed the error outcome")
			}
			if sc.Questions != mc.Questions || sc.Questions != fc.Questions ||
				sres.Questions != mres.Questions || sres.Questions != fres.Questions {
				panic("exp: brute learner variants broke the question-count contract")
			}
			if serr == nil && (!sres.Learned.Equivalent(mres.Learned) || !sres.Learned.Equivalent(fres.Learned)) {
				panic("exp: brute learner variants diverged on the learned query")
			}
			questions = append(questions, float64(sres.Questions))
		}
		sm := stats.Summarize(serialMS).Mean
		fm := stats.Summarize(freshMS).Mean
		cm := stats.Summarize(cachedMS).Mean
		t.AddRow(n, len(candidates), len(pool), stats.Summarize(questions).Mean, sm, fm, cm, fm/cm)
	}
	t.AddNote("fresh scalar = matrix rebuilt per learn with the scalar per-candidate kernel (the judge path before the process-wide matrix cache and the bit-sliced builder); cached sliced = one learn over the prebuilt sliced matrix, its build amortized across the run; questions and learned queries asserted identical serial vs fresh vs cached on every trial")
	return t
}

// bruteBuildTable times the matrix build itself — the scalar
// per-candidate kernel against the bit-sliced slab kernel. The two
// matrices are asserted answer-identical on sampled probes (the full
// bit-identity is pinned by TestMatrixScalarSlicedIdenticalRows).
func bruteBuildTable(e Experiment, cfg Config) *stats.Table {
	t := stats.NewTable(header(e)+" — matrix build",
		"n", "candidates", "pool", "scalar build ms", "sliced build ms", "build speedup")

	sweep := []int{2, 3, 4}
	if cfg.Quick {
		sweep = []int{2, 3}
	}
	for _, n := range sweep {
		u := boolean.MustUniverse(n)
		candidates := query.AllQueries(u)
		pool := boolean.AllObjects(u)

		start := time.Now()
		scalar := brute.NewMatrix(candidates, pool, brute.MatrixOptions{Scalar: true})
		scalarMS := ms(time.Since(start))

		start = time.Now()
		sliced := brute.NewMatrix(candidates, pool, brute.MatrixOptions{})
		slicedMS := ms(time.Since(start))

		rng := rand.New(rand.NewSource(cfg.Seed))
		for probe := 0; probe < 200; probe++ {
			i, j := rng.Intn(len(candidates)), rng.Intn(len(pool))
			if scalar.Answer(i, j) != sliced.Answer(i, j) {
				panic("exp: scalar and sliced matrix builds disagree on an answer bit")
			}
		}
		t.AddRow(n, len(candidates), len(pool), scalarMS, slicedMS, scalarMS/slicedMS)
	}
	t.AddNote("one slab evaluation answers a question for 64 candidates at once; scalar and sliced builds asserted answer-identical on 200 sampled probes per n")
	return t
}

// bruteSampledTable covers the range past exhaustive enumeration:
// n=5, where the candidate set is a seeded sample of the
// role-preserving class (the hidden target always included) and the
// question pool a seeded sample of objects. Elimination may end
// ambiguous — a sampled pool need not separate every candidate pair —
// but an unambiguous winner must be equivalent to the target.
func bruteSampledTable(e Experiment, cfg Config) *stats.Table {
	t := stats.NewTable(header(e)+" — sampled range (n=5)",
		"n", "candidates", "pool", "questions",
		"scalar build ms", "sliced build ms", "build speedup", "learn ms", "ambiguous")
	reg := cfg.Metrics

	const n = 5
	nCands, nPool, trials := 2048, 1024, cfg.Trials
	if trials > 5 {
		trials = 5
	}
	if cfg.Quick {
		nCands, nPool, trials = 512, 256, 2
	}
	u := boolean.MustUniverse(n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	candidates := query.SampleQueries(rng, u, nCands)
	pool := boolean.SampleObjects(rng, u, nPool)

	start := time.Now()
	brute.NewMatrix(candidates, pool, brute.MatrixOptions{Scalar: true})
	scalarMS := ms(time.Since(start))

	start = time.Now()
	m := brute.NewMatrix(candidates, pool, brute.MatrixOptions{Registry: reg})
	slicedMS := ms(time.Since(start))

	ambiguous := 0
	var questions, learnMS []float64
	for trial := 0; trial < trials; trial++ {
		target := candidates[rng.Intn(len(candidates))]
		c := oracle.Count(oracle.Target(target), reg)
		startL := time.Now()
		res, err := m.Learn(c)
		learnMS = append(learnMS, ms(time.Since(startL)))
		switch {
		case err == brute.ErrAmbiguous:
			ambiguous++
		case err != nil:
			panic(err)
		case !res.Learned.Equivalent(target):
			panic("exp: sampled brute learner missed its target")
		}
		questions = append(questions, float64(res.Questions))
	}
	t.AddRow(n, len(candidates), len(pool), stats.Summarize(questions).Mean,
		scalarMS, slicedMS, scalarMS/slicedMS, stats.Summarize(learnMS).Mean, ambiguous)
	t.AddNote("candidates and objects are seeded samples (query.SampleQueries, boolean.SampleObjects) with the target always a candidate; ambiguous outcomes are tolerated, unambiguous winners asserted equivalent to the target")
	return t
}
