// Package difffuzz is the differential-testing engine that
// cross-validates the repository's three independent implementations
// of qhorn semantics against each other:
//
//   - the fast exact learners (learn.Run, qhorn-1 and role-preserving),
//     whose output must be semantically equivalent to the hidden
//     query (Theorems 3.1, 3.5, 3.8);
//   - the verification-set construction (verify.Build, Fig 6), which
//     by Theorem 4.2 must accept exactly the queries equivalent to
//     the intended one;
//   - ground-truth semantics: the normal-form equivalence judgment of
//     Proposition 4.1 (query.Equivalent), exhaustive evaluation over
//     all objects on small universes, and the brute-force elimination
//     learner (internal/brute) where the universe permits.
//
// A disagreement between any two judges is a bug in at least one of
// them. The engine generates seeded random queries plus adversarial
// mutants (gen.go), runs every judge on each case (check.go), shrinks
// any failure to a locally-minimal repro (minimize.go), and persists
// repros to a replayable corpus (corpus.go). Native go-fuzz targets
// live in fuzz_test.go; cmd/qhornfuzz drives the engine from the
// command line.
package difffuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"qhorn/internal/obs"
	"qhorn/internal/query"
)

// Class selects the hidden-query class of a fuzz case.
type Class string

const (
	// ClassQhorn1 draws hidden queries from qhorn-1 (§2.1.3) and
	// learns them with the qhorn-1 learner.
	ClassQhorn1 Class = "qhorn1"
	// ClassRP draws hidden queries from role-preserving qhorn
	// (§2.1.4) and learns them with the role-preserving learner.
	ClassRP Class = "rp"
	// ClassVerify pits a given (possibly wrong) query against a
	// hidden intended query through the verifier only: no learning.
	ClassVerify Class = "verify"
)

// Case is one differential test case. For the learning classes the
// hidden query is learned through a simulated oracle and the result
// is judged against it. For ClassVerify the Given query's
// verification set is run against an oracle backed by Hidden, and the
// verdict is judged against ground-truth equivalence.
type Case struct {
	Class  Class
	Hidden query.Query
	// Given is the user-specified query of a ClassVerify case; unused
	// otherwise.
	Given query.Query
}

// String renders the case compactly for logs and repro files.
func (c Case) String() string {
	if c.Class == ClassVerify {
		return fmt.Sprintf("[verify n=%d given=%s hidden=%s]", c.Hidden.N(), c.Given, c.Hidden)
	}
	return fmt.Sprintf("[%s n=%d hidden=%s]", c.Class, c.Hidden.N(), c.Hidden)
}

// Kind identifies which cross-validation judgment failed.
type Kind string

const (
	// KindClass: the learner's output left its query class.
	KindClass Kind = "class"
	// KindLearnEquiv: the learned query is not semantically
	// equivalent to the hidden one (exact learning violated).
	KindLearnEquiv Kind = "learn-equiv"
	// KindJudgment: the normal-form equivalence judgment
	// (Proposition 4.1) contradicts evaluation over objects — one of
	// the two semantic judges is wrong.
	KindJudgment Kind = "judgment"
	// KindVerifyBuild: the verification-set construction failed or
	// produced a set the query itself does not classify as expected.
	KindVerifyBuild Kind = "verify-build"
	// KindVerifyVerdict: the verification verdict disagrees with
	// ground-truth equivalence — a false alarm on an equivalent
	// intent, or a miss on a different one (Theorem 4.2 violated).
	KindVerifyVerdict Kind = "verify-verdict"
	// KindBrute: the brute-force reference learner disagrees with the
	// fast learner or the hidden query.
	KindBrute Kind = "brute"
	// KindBudget: the learner exceeded twice its advertised question
	// bound (learn.EstimateQhorn1 / learn.EstimateRolePreserving).
	KindBudget Kind = "budget"
	// KindEngine: a run-engine option combination (batch, budget,
	// counter, instrumentation) failed to reproduce the plain serial
	// run — different questions, different per-phase stats, or (batch)
	// a learned query not equivalent to the serial one
	// (docs/ENGINE.md).
	KindEngine Kind = "engine"
	// KindKernel: the compiled evaluation kernel (query.Compile)
	// classified an object differently from the interpreted Query.Eval
	// — the two evaluators must be bit-identical on every object
	// (docs/PERFORMANCE.md). This judge is always on.
	KindKernel Kind = "kernel"
)

// Disagreement is one failed judgment: the case, what fired, and —
// when one exists — a witness object the two sides classify
// differently.
type Disagreement struct {
	Kind    Kind
	Case    Case
	Learned query.Query
	// Witness is an object on which two judges disagree; HasWitness
	// reports whether it is meaningful (the empty object is a valid
	// witness).
	Witness    Witness
	HasWitness bool
	Detail     string
}

// String renders the disagreement for logs.
func (d Disagreement) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %s", d.Kind, d.Case, d.Detail)
	if d.HasWitness {
		fmt.Fprintf(&b, " (witness %s)", d.Witness.Format(d.Case.Hidden.U))
	}
	return b.String()
}

// Config parameterizes a fuzzing run.
type Config struct {
	// Seed seeds the deterministic case generator.
	Seed int64
	// Runs is the number of generated cases (default 100). Each run
	// produces one learning case and one derived verification case.
	Runs int
	// Class restricts the learning cases: ClassQhorn1, ClassRP, or
	// empty/"both" to alternate.
	Class Class
	// MinVars and MaxVars bound the universe size (defaults 2 and 8).
	MinVars, MaxVars int
	// Options tune the per-case checks (sampling width, brute-force
	// ceiling, bug injection).
	Options Options
	// Progress, when set, is called after every case with the number
	// of cases done so far.
	Progress func(done, total int)
	// Spans and Metrics are the optional observability hooks; nil is
	// silent.
	Spans   *obs.Tracer
	Metrics *obs.Registry
}

// Report aggregates one fuzzing run.
type Report struct {
	Runs         int
	CasesByClass map[Class]int
	// BruteCases counts cases the brute judge reached (exhaustive or
	// sampled); BruteSampledCases is the sampled subset.
	BruteCases        int
	BruteSampledCases int
	Questions         int
	Disagreements     []Disagreement
}

// Summary renders the report as aligned text.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cases: qhorn1 %d, rp %d, verify %d (brute cross-checks %d, %d sampled)\n",
		r.CasesByClass[ClassQhorn1], r.CasesByClass[ClassRP], r.CasesByClass[ClassVerify], r.BruteCases, r.BruteSampledCases)
	fmt.Fprintf(&b, "membership questions: %d\n", r.Questions)
	fmt.Fprintf(&b, "disagreements: %d", len(r.Disagreements))
	return b.String()
}

// Run generates cfg.Runs seeded cases, checks each with every judge,
// and reports all disagreements. It is deterministic for a fixed
// Config.
func Run(cfg Config) Report {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	if cfg.MinVars < 1 {
		cfg.MinVars = 2
	}
	if cfg.MaxVars < cfg.MinVars {
		cfg.MaxVars = 8
	}
	if cfg.MaxVars < cfg.MinVars {
		cfg.MaxVars = cfg.MinVars
	}
	opt := cfg.Options.withDefaults()

	root := cfg.Spans.StartSpan("difffuzz",
		obs.Af("seed", "%d", cfg.Seed),
		obs.Af("runs", "%d", cfg.Runs),
		obs.A("class", string(cfg.effectiveClass())))
	defer root.End()

	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := Report{Runs: cfg.Runs, CasesByClass: map[Class]int{}}
	record := func(ds []Disagreement) {
		for _, d := range ds {
			rep.Disagreements = append(rep.Disagreements, d)
			root.Event("disagreement", obs.A("kind", string(d.Kind)), obs.A("detail", d.Detail))
			cfg.Metrics.Counter(obs.MetricFuzzDisagreements, "kind", string(d.Kind)).Inc()
		}
	}
	for i := 0; i < cfg.Runs; i++ {
		class := cfg.classFor(i)
		c := GenCase(rng, class, cfg.MinVars, cfg.MaxVars)
		rep.CasesByClass[class]++
		cfg.Metrics.Counter(obs.MetricFuzzCases, "class", string(class)).Inc()
		res := CheckCase(c, opt)
		rep.Questions += res.Questions
		if res.BruteChecked {
			rep.BruteCases++
			if res.BruteSampled {
				rep.BruteSampledCases++
			}
		}
		record(res.Disagreements)

		// Derived verification case: an adversarial mutant of the
		// hidden query plays the user's written query. The verifier
		// must accept it iff it is still equivalent.
		if given, _, ok := Mutant(rng, c.Hidden); ok {
			vc := Case{Class: ClassVerify, Hidden: c.Hidden, Given: given}
			rep.CasesByClass[ClassVerify]++
			cfg.Metrics.Counter(obs.MetricFuzzCases, "class", string(ClassVerify)).Inc()
			vres := CheckCase(vc, opt)
			rep.Questions += vres.Questions
			record(vres.Disagreements)
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, cfg.Runs)
		}
	}
	root.Annotate(obs.Af("disagreements", "%d", len(rep.Disagreements)))
	return rep
}

// effectiveClass renders the configured class restriction for logs.
func (cfg Config) effectiveClass() Class {
	if cfg.Class == ClassQhorn1 || cfg.Class == ClassRP {
		return cfg.Class
	}
	return "both"
}

// classFor picks the class of the i-th learning case.
func (cfg Config) classFor(i int) Class {
	switch cfg.Class {
	case ClassQhorn1, ClassRP:
		return cfg.Class
	default:
		if i%2 == 0 {
			return ClassQhorn1
		}
		return ClassRP
	}
}
