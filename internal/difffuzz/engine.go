package difffuzz

// The run-engine options-matrix judge (Options.EngineMatrix): the
// engine's contract is that cross-cutting options — batching, budgets,
// counters, instrumentation — never change WHAT is asked, only how the
// asking is arranged. This judge replays a case's learning run and
// verification run under every meaningful option combination and
// compares the question stream (phase, question, answer) and the
// per-phase stats against the plain serial reference — in exact order
// for non-batching options, as a multiset for the batched one, whose
// learned query must also be equivalent to the serial one. Any
// difference is a KindEngine disagreement.

import (
	"fmt"
	"sort"

	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
	"qhorn/internal/verify"
)

// engineStep is one question of a recorded run, in comparable form.
type engineStep struct {
	phase  string
	key    string
	answer bool
}

// recordSteps returns a WithSteps option appending each question to
// *dst in ask order.
func recordSteps(dst *[]engineStep) run.Option {
	return run.WithSteps(func(s run.Step) {
		*dst = append(*dst, engineStep{phase: s.Phase, key: s.Question.Key(), answer: s.Answer})
	})
}

// stepsDiff describes the first divergence between two step streams,
// or "" when they are identical.
func stepsDiff(ref, got []engineStep) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("%d questions vs %d serial", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return fmt.Sprintf("question %d is {%s %s %v}, serial asked {%s %s %v}",
				i, got[i].phase, got[i].key, got[i].answer, ref[i].phase, ref[i].key, ref[i].answer)
		}
	}
	return ""
}

// sortSteps returns the stream in canonical order for the
// order-insensitive comparison the batched combinations get: batching
// interleaves independent per-head question streams into waves
// (docs/ENGINE.md), so the multiset of questions is the invariant, not
// the global order.
func sortSteps(steps []engineStep) []engineStep {
	out := append([]engineStep(nil), steps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].phase != out[j].phase {
			return out[i].phase < out[j].phase
		}
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return !out[i].answer && out[j].answer
	})
	return out
}

// engineCombo is one cell of the options matrix: engine options, or a
// wrapper around the hidden user's oracle. The batch combination
// interleaves independent question streams into waves, so it is held
// to the order-insensitive half of the contract — identical question
// multiset and stats, and an equivalent learned query — while the rest
// must reproduce the serial stream in order.
type engineCombo struct {
	name     string
	opts     []run.Option
	wrap     func(oracle.Oracle) oracle.Oracle
	reorders bool
}

// user returns the hidden query's oracle under the combination's
// wrapper.
func (combo engineCombo) user(c Case) oracle.Oracle {
	o := oracle.Target(c.Hidden)
	if combo.wrap != nil {
		o = combo.wrap(o)
	}
	return o
}

// engineCombos returns the combinations of the matrix. budget is the
// serial run's total question count, so the budgeted user must answer
// the whole run without panicking.
func engineCombos(budget int) []engineCombo {
	return []engineCombo{
		{name: "batch", opts: []run.Option{run.WithBatch()}, reorders: true},
		{name: "budget", wrap: func(o oracle.Oracle) oracle.Oracle { return oracle.WithBudget(o, budget, nil) }},
		{name: "counter", opts: []run.Option{run.WithCounter()}},
		{name: "observed", opts: []run.Option{run.WithInstrumentation(run.Instrumentation{
			Spans:   obs.NewTracer(obs.NewTreeSink()),
			Metrics: obs.NewRegistry(),
		})}},
	}
}

// judgeEngineMatrixLearn re-learns the hidden query through every
// option combination and reports each one that breaks the bit-identity
// contract against the plain serial engine run.
func judgeEngineMatrixLearn(c Case, opt Options, res *CaseResult) {
	u := c.Hidden.U
	alg := run.Qhorn1
	if c.Class == ClassRP {
		alg = run.RolePreserving
	}
	collect := func(combo engineCombo) ([]engineStep, run.Stats, query.Query) {
		var steps []engineStep
		opts := append([]run.Option{run.WithAlgorithm(alg), recordSteps(&steps)}, combo.opts...)
		q, st := learn.Run(u, combo.user(c), opts...)
		return steps, st, q
	}
	refSteps, refStats, refQuery := collect(engineCombo{})
	res.Questions += refStats.Total()

	fail := func(name, format string, args ...interface{}) {
		res.Disagreements = append(res.Disagreements, Disagreement{
			Kind: KindEngine, Case: c,
			Detail: fmt.Sprintf("learn option %s: %s", name, fmt.Sprintf(format, args...)),
		})
	}
	for _, combo := range engineCombos(refStats.Total()) {
		steps, stats, learned := collect(combo)
		res.Questions += stats.Total()
		if stats != refStats {
			fail(combo.name, "stats %+v differ from serial %+v", stats, refStats)
		}
		ref := refSteps
		if combo.reorders {
			ref, steps = sortSteps(ref), sortSteps(steps)
			if _, found := SemanticWitness(learned, refQuery, opt); found {
				fail(combo.name, "learned %s, not equivalent to serial %s", learned, refQuery)
			}
		}
		if d := stepsDiff(ref, steps); d != "" {
			fail(combo.name, "question stream diverged: %s", d)
		}
	}
}

// judgeEngineMatrixVerify runs the Given query's verification set
// through every option combination and reports each one whose result
// or question stream differs from the plain serial engine run.
func judgeEngineMatrixVerify(c Case, vs verify.Set, res *CaseResult) {
	collect := func(combo engineCombo) ([]engineStep, verify.Result) {
		var steps []engineStep
		opts := append([]run.Option{recordSteps(&steps)}, combo.opts...)
		return steps, vs.RunWith(combo.user(c), opts...)
	}
	refSteps, refRes := collect(engineCombo{})
	res.Questions += refRes.QuestionsAsked

	fail := func(name, format string, args ...interface{}) {
		res.Disagreements = append(res.Disagreements, Disagreement{
			Kind: KindEngine, Case: c,
			Detail: fmt.Sprintf("verify option %s: %s", name, fmt.Sprintf(format, args...)),
		})
	}
	// The verification set has a fixed question order that batching
	// preserves (AskAll is aligned with the set), so every combination
	// is held to the exact ordered stream.
	for _, combo := range engineCombos(refRes.QuestionsAsked) {
		steps, vres := collect(combo)
		res.Questions += vres.QuestionsAsked
		if vres.Correct != refRes.Correct || vres.QuestionsAsked != refRes.QuestionsAsked ||
			len(vres.Disagreements) != len(refRes.Disagreements) {
			fail(combo.name, "result (correct=%v, %d questions, %d disagreements) differs from serial (correct=%v, %d questions, %d disagreements)",
				vres.Correct, vres.QuestionsAsked, len(vres.Disagreements),
				refRes.Correct, refRes.QuestionsAsked, len(refRes.Disagreements))
			continue
		}
		if d := stepsDiff(refSteps, steps); d != "" {
			fail(combo.name, "question stream diverged: %s", d)
		}
	}
}
