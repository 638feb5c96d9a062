package exp

import (
	"math/rand"
	"runtime"
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
		ID:    "E23",
		Name:  "kernel",
		Paper: "engineering (docs/PERFORMANCE.md)",
		Claim: "the compiled evaluation kernel cuts evaluation wall time without changing a single verdict",
		Run:   runKernel,
	})
}

// runKernel measures the compiled query-evaluation kernel against the
// tree-walking interpreter. The comparison asserts bit-identical
// behaviour inside the run — every evaluation verdict must match — so
// the speedup column never trades correctness for wall time. The
// answer-matrix brute learner is measured by E27 (brute.go). `qhornexp
// -exp kernel -json` writes the result as BENCH_kernel.json.
func runKernel(cfg Config) []*stats.Table {
	cfg = cfg.normalize()
	e, _ := ByName("kernel")
	return []*stats.Table{evalTable(e, cfg)}
}

// evalTable times interpreted vs compiled evaluation on the workload
// the kernel exists for: the membership questions a qhorn1 learning
// session asks its simulated user, recorded once and replayed through
// both evaluators, with wall time and allocations per call.
func evalTable(e Experiment, cfg Config) *stats.Table {
	t := stats.NewTable(header(e)+" — evaluation (recorded session questions)",
		"n", "questions", "evals", "interp ms", "compiled ms", "speedup",
		"interp allocs/op", "compiled allocs/op")
	reg := cfg.registry()

	sweep := []int{12, 16, 24}
	reps := 50
	if cfg.Quick {
		sweep = []int{12}
		reps = 10
	}
	for _, n := range sweep {
		rng := rand.New(rand.NewSource(cfg.Seed))
		u := boolean.MustUniverse(n)
		var nq, interpMS, compiledMS, interpAllocs, compiledAllocs []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			target := query.GenQhorn1(rng, n)
			tr := oracle.Record(oracle.Count(oracle.Func(target.Eval), reg))
			learn.Run(u, tr, run.WithAlgorithm(run.Qhorn1))
			qs := make([]boolean.Set, len(tr.Entries))
			for i, entry := range tr.Entries {
				qs[i] = entry.Question
			}
			comp := query.Compile(target)
			// In-run identity assert: the kernel must agree with the
			// interpreter on every question before either is timed.
			for _, s := range qs {
				if comp.Eval(s) != target.Eval(s) {
					panic("exp: compiled kernel diverged from interpreter")
				}
			}
			ops := len(qs) * reps
			ms, allocs := timeAllocs(ops, func() {
				for r := 0; r < reps; r++ {
					for _, s := range qs {
						target.Eval(s)
					}
				}
			})
			interpMS = append(interpMS, ms)
			interpAllocs = append(interpAllocs, allocs)
			ms, allocs = timeAllocs(ops, func() {
				for r := 0; r < reps; r++ {
					for _, s := range qs {
						comp.Eval(s)
					}
				}
			})
			compiledMS = append(compiledMS, ms)
			compiledAllocs = append(compiledAllocs, allocs)
			nq = append(nq, float64(len(qs)))
		}
		im := stats.Summarize(interpMS).Mean
		cm := stats.Summarize(compiledMS).Mean
		t.AddRow(n, stats.Summarize(nq).Mean, int(stats.Summarize(nq).Mean)*reps, im, cm, im/cm,
			stats.Summarize(interpAllocs).Mean, stats.Summarize(compiledAllocs).Mean)
	}
	t.AddNote("workload: every membership question of a recorded qhorn1 session, replayed %d×; identity asserted on every question before timing; compiled allocs/op must be 0 (gated by TestCompiledEvalZeroAllocs)", reps)
	return t
}

// timeAllocs runs f, returning its wall time in milliseconds and the
// heap allocations per operation over ops operations.
func timeAllocs(ops int, f func()) (ms, allocsPerOp float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Microseconds()) / 1000,
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}
