package difffuzz

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/verify"
)

// Witness is an object two judges classify differently. It is a plain
// database (boolean.Set); the alias names its role in a disagreement.
type Witness = boolean.Set

// Options tune the per-case judge battery.
type Options struct {
	// EvalSamples is the number of random probe objects per semantic
	// comparison on universes too large to enumerate (default 96).
	EvalSamples int
	// ExhaustiveVars is the largest universe on which equivalence is
	// decided by evaluating every object — 2^(2^n) objects, so the
	// default is 3 (256 objects).
	ExhaustiveVars int
	// BruteVars is the largest universe on which the brute-force
	// elimination learner cross-checks the fast learner exhaustively —
	// every role-preserving query and every object enumerated (default
	// 4, the widest range the antichain enumeration reaches; negative
	// disables the check). The answer matrix behind the check is built
	// once per universe and cached for the process.
	BruteVars int
	// BruteSampleVars extends the brute cross-check past the
	// exhaustive range: universes with BruteVars < n ≤ BruteSampleVars
	// get a seeded sample of candidate queries (always including the
	// hidden query's normal form) and probe objects. An ambiguous
	// outcome is tolerated — a sampled pool need not separate every
	// candidate pair — but an unambiguous wrong answer is a
	// disagreement. Default 5; negative disables.
	BruteSampleVars int
	// Warp, when set, corrupts the learned query before it is judged.
	// Tests use it to inject known bugs and prove the engine detects
	// and the minimizer shrinks them.
	Warp func(query.Query) query.Query
	// EngineMatrix adds the run-engine options-matrix judge: every
	// meaningful option combination (batch, budget, counter,
	// instrumentation) re-runs the case through learn.Run /
	// verify.RunWith and must reproduce the plain serial run —
	// identical per-phase stats, and an identical ordered question
	// stream for non-batching options or identical question multiset
	// and an equivalent learned query for the batched one, whose waves
	// interleave independent streams (docs/ENGINE.md).
	EngineMatrix bool
}

func (o Options) withDefaults() Options {
	if o.EvalSamples <= 0 {
		o.EvalSamples = 96
	}
	if o.ExhaustiveVars <= 0 {
		o.ExhaustiveVars = 3
	}
	if o.BruteVars == 0 {
		o.BruteVars = 4
	}
	if o.BruteSampleVars == 0 {
		o.BruteSampleVars = 5
	}
	return o
}

// CaseResult is the outcome of running every judge on one case.
type CaseResult struct {
	// Learned is the fast learner's output (learning classes only).
	Learned query.Query
	// Questions is the total membership questions asked across the
	// learner, the verifier, and the brute-force cross-check.
	Questions int
	// BruteChecked reports whether the universe was small enough for
	// the brute-force cross-check.
	BruteChecked bool
	// BruteSampled reports that the brute cross-check ran in its
	// sampled form (BruteVars < n ≤ BruteSampleVars) rather than the
	// exhaustive one.
	BruteSampled  bool
	Disagreements []Disagreement
}

// CheckCase runs the full judge battery on one case. It is
// deterministic: the learners are deterministic, and the randomized
// probe sampling is seeded from the case content, so a failing case
// keeps failing — the property the minimizer depends on.
func CheckCase(c Case, opt Options) CaseResult {
	opt = opt.withDefaults()
	if c.Class == ClassVerify {
		return checkVerify(c, opt)
	}
	return checkLearn(c, opt)
}

// checkLearn learns the hidden query through a counting oracle and
// judges the result: class membership, semantic equivalence by normal
// form and by evaluation (cross-checked against each other),
// verification-set soundness, the question budget, and — on tiny
// universes — the brute-force reference learner.
func checkLearn(c Case, opt Options) CaseResult {
	u := c.Hidden.U
	counter := oracle.Count(oracle.Target(c.Hidden), nil)
	alg := run.Qhorn1
	if c.Class != ClassQhorn1 {
		alg = run.RolePreserving
	}
	learned, st := learn.Run(u, counter, run.WithAlgorithm(alg))
	asked := st.Total()
	if opt.Warp != nil {
		learned = opt.Warp(learned)
	}
	res := CaseResult{Learned: learned, Questions: asked}
	fail := func(kind Kind, w Witness, hasW bool, format string, args ...interface{}) {
		res.Disagreements = append(res.Disagreements, Disagreement{
			Kind: kind, Case: c, Learned: learned,
			Witness: w, HasWitness: hasW,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Judge 0 (always on): the compiled evaluation kernel must agree
	// with the interpreted evaluator on both the hidden and the learned
	// query.
	judgeKernel(&res, c, opt, c.Hidden, learned)

	// Judge 1: the learner must stay inside its advertised class.
	if c.Class == ClassQhorn1 && !learned.IsQhorn1() {
		fail(KindClass, Witness{}, false, "learned %s is not qhorn-1", learned)
	}
	if !learned.IsRolePreserving() {
		fail(KindClass, Witness{}, false, "learned %s is not role-preserving", learned)
	}

	// Judge 2: the question budget (2× slack over the advertised
	// estimate; the warp does not change the count, so this judges the
	// untainted learner).
	if bound := 2 * estimateFor(c); asked > bound {
		fail(KindBudget, Witness{}, false, "%d questions exceed 2× estimate %d", asked, bound)
	}

	// Judges 3+4: semantic equivalence by Proposition 4.1 normal form
	// and by evaluation over objects, cross-checked.
	equiv := judgeEquivalence(&res, c, learned, c.Hidden, opt)
	if !equiv.equal {
		fail(KindLearnEquiv, equiv.witness, equiv.hasWitness,
			"learned %s is not equivalent to hidden %s", learned, c.Hidden)
	}

	// Judge 5: the verification set of the learned query, run against
	// the hidden oracle, must answer Correct iff the queries are
	// equivalent (Theorem 4.2) and must be self-consistent.
	if learned.IsRolePreserving() {
		vs, err := verify.Build(learned)
		if err != nil {
			fail(KindVerifyBuild, Witness{}, false, "verify.Build(%s): %v", learned, err)
		} else {
			if !vs.SelfConsistent() {
				fail(KindVerifyBuild, Witness{}, false, "verification set of %s is not self-consistent", learned)
			}
			vres := vs.RunWith(oracle.Target(c.Hidden))
			res.Questions += vres.QuestionsAsked
			if vres.Correct != equiv.equal {
				w, hasW := equiv.witness, equiv.hasWitness
				if !vres.Correct && len(vres.Disagreements) > 0 {
					w, hasW = vres.Disagreements[0].Question.Set, true
				}
				fail(KindVerifyVerdict, w, hasW,
					"verifier says correct=%v but equivalence is %v", vres.Correct, equiv.equal)
			}
		}
	}

	// Judge 7: the brute-force elimination learner. Universes up to
	// BruteVars get the exhaustive check — every role-preserving query
	// eliminated over every object, through a process-cached answer
	// matrix so the (candidates × objects) build cost is paid once per
	// universe. Universes up to BruteSampleVars get the sampled
	// variant: a seeded candidate pool guaranteed to contain the hidden
	// query's normal form, probed on sampled objects.
	switch {
	case opt.BruteVars > 0 && u.N() <= opt.BruteVars:
		res.BruteChecked = true
		bres, err := bruteMatrixFor(u).Learn(oracle.Target(c.Hidden))
		if err != nil {
			fail(KindBrute, Witness{}, false, "brute.Learn: %v", err)
		} else {
			res.Questions += bres.Questions
			if !bres.Learned.Equivalent(c.Hidden) {
				fail(KindBrute, Witness{}, false,
					"brute learned %s, not equivalent to hidden %s", bres.Learned, c.Hidden)
			}
			if equiv.equal && learned.IsRolePreserving() && !bres.Learned.Equivalent(learned) {
				fail(KindBrute, Witness{}, false,
					"brute learned %s, fast learner %s — equivalence is not transitive", bres.Learned, learned)
			}
		}
	case opt.BruteSampleVars > 0 && u.N() <= opt.BruteSampleVars:
		res.BruteChecked = true
		res.BruteSampled = true
		judgeBruteSampled(&res, c, opt, fail)
	}

	// Judge 8: the run-engine options matrix — every option combination
	// must reproduce the plain serial engine run bit for bit
	// (docs/ENGINE.md).
	if opt.EngineMatrix {
		judgeEngineMatrixLearn(c, opt, &res)
	}
	return res
}

// checkVerify runs the Given query's verification set against an
// oracle backed by Hidden and judges the verdict against ground-truth
// equivalence. Cases outside the construction's domain (non-role-
// preserving queries) are skipped: Build's error there is documented
// behavior, not a disagreement.
func checkVerify(c Case, opt Options) CaseResult {
	res := CaseResult{}
	if !c.Given.IsRolePreserving() || !c.Hidden.IsRolePreserving() {
		return res
	}
	fail := func(kind Kind, w Witness, hasW bool, format string, args ...interface{}) {
		res.Disagreements = append(res.Disagreements, Disagreement{
			Kind: kind, Case: c, Witness: w, HasWitness: hasW,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	// Kernel judge (always on): compiled vs interpreted evaluation of
	// both queries of the case.
	judgeKernel(&res, c, opt, c.Given, c.Hidden)
	vs, err := verify.Build(c.Given)
	if err != nil {
		fail(KindVerifyBuild, Witness{}, false, "verify.Build(%s): %v", c.Given, err)
		return res
	}
	if !vs.SelfConsistent() {
		fail(KindVerifyBuild, Witness{}, false, "verification set of %s is not self-consistent", c.Given)
	}
	vres := vs.RunWith(oracle.Target(c.Hidden))
	res.Questions += vres.QuestionsAsked

	// Options-matrix judge: the same set through every engine option
	// combination must reproduce the serial result and question stream
	// (docs/ENGINE.md).
	if opt.EngineMatrix {
		judgeEngineMatrixVerify(c, vs, &res)
	}

	equiv := judgeEquivalence(&res, c, c.Given, c.Hidden, opt)
	if vres.Correct != equiv.equal {
		w, hasW := equiv.witness, equiv.hasWitness
		if !vres.Correct && len(vres.Disagreements) > 0 {
			w, hasW = vres.Disagreements[0].Question.Set, true
		}
		fail(KindVerifyVerdict, w, hasW,
			"verifier says correct=%v but equivalence is %v", vres.Correct, equiv.equal)
	}
	return res
}

// equivJudgment is the reconciled output of the two semantic judges.
type equivJudgment struct {
	equal      bool
	witness    Witness
	hasWitness bool
}

// judgeEquivalence decides whether a and b are semantically equal by
// two independent judges — the Proposition 4.1 normal form
// (query.Equivalent) and evaluation over objects — records a
// KindJudgment disagreement when they contradict each other inside
// the proposition's domain (role-preserving queries), and returns the
// reconciled verdict: evaluation wins where it is exhaustive, a found
// witness always wins, the normal form decides the rest.
func judgeEquivalence(res *CaseResult, c Case, a, b query.Query, opt Options) equivJudgment {
	structEq := a.Equivalent(b)
	w, found := SemanticWitness(a, b, opt)
	exhaustive := a.N() <= opt.ExhaustiveVars
	prop41 := a.IsRolePreserving() && b.IsRolePreserving()
	if prop41 {
		if structEq && found {
			res.Disagreements = append(res.Disagreements, Disagreement{
				Kind: KindJudgment, Case: c, Learned: a, Witness: w, HasWitness: true,
				Detail: fmt.Sprintf("normal forms of %s and %s are equal but an object separates them", a, b),
			})
		}
		if !structEq && !found && exhaustive {
			res.Disagreements = append(res.Disagreements, Disagreement{
				Kind: KindJudgment, Case: c, Learned: a,
				Detail: fmt.Sprintf("normal forms of %s and %s differ but no object separates them", a, b),
			})
		}
	}
	switch {
	case exhaustive:
		return equivJudgment{equal: !found, witness: w, hasWitness: found}
	case found:
		return equivJudgment{equal: false, witness: w, hasWitness: true}
	case prop41:
		return equivJudgment{equal: structEq}
	default:
		return equivJudgment{equal: true}
	}
}

// estimateFor returns the advertised question bound for the case's
// class, with the role-preserving shape parameters read off the
// hidden query's normal form (k counts learned conjunctions including
// the guarantee clauses of the universals, as in the estimate tests).
func estimateFor(c Case) int {
	n := c.Hidden.N()
	if c.Class == ClassQhorn1 {
		return learn.EstimateQhorn1(n)
	}
	nf := c.Hidden.Normalize()
	heads := nf.UniversalHeads().Count()
	theta := nf.CausalDensity()
	if theta < 1 {
		theta = 1
	}
	k := len(nf.DominantConjunctions()) + heads*theta
	if k < 1 {
		k = 1
	}
	return learn.EstimateRolePreserving(n, heads, theta, k)
}

// SemanticWitness searches for an object a and b classify
// differently. On universes of at most opt.ExhaustiveVars variables
// the search is exhaustive, so not finding a witness proves
// equivalence. On larger universes it probes the verification sets of
// both queries — by Theorem 4.2 two inequivalent role-preserving
// queries disagree on one of those questions — and then samples
// random objects around structural anchors, deterministically seeded
// from the pair's text so the search is a pure function of (a, b).
func SemanticWitness(a, b query.Query, opt Options) (Witness, bool) {
	opt = opt.withDefaults()
	u := a.U
	if u.N() <= opt.ExhaustiveVars {
		for _, o := range boolean.AllObjects(u) {
			if a.Eval(o) != b.Eval(o) {
				return ShrinkWitness(a, b, o), true
			}
		}
		return Witness{}, false
	}
	for _, q := range []query.Query{a, b} {
		vs, err := verify.Build(q)
		if err != nil {
			continue
		}
		for _, question := range vs.Questions {
			if a.Eval(question.Set) != b.Eval(question.Set) {
				return ShrinkWitness(a, b, question.Set), true
			}
		}
	}
	rng := rand.New(rand.NewSource(witnessSeed(a, b)))
	anchors := witnessAnchors(a, b)
	for i := 0; i < opt.EvalSamples; i++ {
		o := probeObject(rng, u, anchors)
		if a.Eval(o) != b.Eval(o) {
			return ShrinkWitness(a, b, o), true
		}
	}
	return Witness{}, false
}

// probeObject draws one random object: each tuple is either a
// perturbed structural anchor or uniform over the universe.
func probeObject(rng *rand.Rand, u boolean.Universe, anchors []boolean.Tuple) boolean.Set {
	var tuples []boolean.Tuple
	for j := 1 + rng.Intn(3); j > 0; j-- {
		var t boolean.Tuple
		if len(anchors) > 0 && rng.Intn(2) == 0 {
			t = anchors[rng.Intn(len(anchors))]
			for f := rng.Intn(3); f > 0; f-- {
				v := rng.Intn(u.N())
				if t.Has(v) {
					t = t.Without(v)
				} else {
					t = t.With(v)
				}
			}
		} else {
			t = boolean.Tuple(rng.Int63()).Intersect(u.All())
		}
		tuples = append(tuples, t)
	}
	return boolean.NewSet(tuples...)
}

// KernelWitness searches for an object the compiled kernel
// (query.Compile) and the interpreted Query.Eval classify differently
// — by construction there should be none; any hit is a kernel bug. The
// search mirrors SemanticWitness: exhaustive on small universes, then
// the query's own verification questions (evaluation differences
// concentrate on distinguishing tuples), then seeded anchor-perturbed
// samples, plus the empty object. It is a pure function of q.
func KernelWitness(q query.Query, opt Options) (Witness, bool) {
	opt = opt.withDefaults()
	c := query.Compile(q)
	u := q.U
	if c.Eval(boolean.Set{}) != q.Eval(boolean.Set{}) {
		return Witness{}, true
	}
	if u.N() <= opt.ExhaustiveVars {
		for _, o := range boolean.AllObjects(u) {
			if c.Eval(o) != q.Eval(o) {
				return o, true
			}
		}
		return Witness{}, false
	}
	if vs, err := verify.Build(q); err == nil {
		for _, question := range vs.Questions {
			if c.Eval(question.Set) != q.Eval(question.Set) {
				return question.Set, true
			}
		}
	}
	rng := rand.New(rand.NewSource(witnessSeed(q, q)))
	anchors := witnessAnchors(q, q)
	for i := 0; i < opt.EvalSamples; i++ {
		o := probeObject(rng, u, anchors)
		if c.Eval(o) != q.Eval(o) {
			return o, true
		}
	}
	return Witness{}, false
}

// judgeKernel runs the compiled-vs-interpreted evaluation judge over
// every query the case touches. It is part of the default judge set:
// every generated case exercises it.
func judgeKernel(res *CaseResult, c Case, opt Options, queries ...query.Query) {
	for _, q := range queries {
		if w, found := KernelWitness(q, opt); found {
			res.Disagreements = append(res.Disagreements, Disagreement{
				Kind: KindKernel, Case: c, Learned: q, Witness: w, HasWitness: true,
				Detail: fmt.Sprintf("compiled and interpreted Eval of %s disagree", q),
			})
		}
	}
}

// ShrinkWitness drops tuples from a separating object while it still
// separates the two queries, so reported witnesses are minimal.
func ShrinkWitness(a, b query.Query, w boolean.Set) boolean.Set {
	for changed := true; changed; {
		changed = false
		for _, t := range w.Tuples() {
			cand := w.Without(t)
			if a.Eval(cand) != b.Eval(cand) {
				w, changed = cand, true
				break
			}
		}
	}
	return w
}

// witnessAnchors collects the structurally interesting tuples of both
// queries: the all-true tuple, closures of dominant conjunctions, and
// universal distinguishing tuples. Random probes are perturbations of
// these, which is where evaluation differences concentrate.
func witnessAnchors(a, b query.Query) []boolean.Tuple {
	var out []boolean.Tuple
	for _, q := range []query.Query{a, b} {
		out = append(out, q.U.All())
		for _, c := range q.DominantConjunctions() {
			out = append(out, q.Closure(c))
		}
		for _, e := range q.DominantUniversals() {
			out = append(out, q.UniversalDistinguishingTuple(e))
		}
	}
	return out
}

// witnessSeed derives the deterministic sampling seed from the pair's
// rendered text, making SemanticWitness a pure function.
func witnessSeed(a, b query.Query) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", a.N(), a, b)
	return int64(h.Sum64())
}
