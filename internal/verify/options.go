package verify

// This file is the verifier's face of the composable run engine
// (internal/run, docs/ENGINE.md): the option-driven entry points Run
// and Set.RunWith, the shared Instrumentation alias, and the one
// configured core both delegate to.

import (
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// timePhase returns a func observing the phase's wall time into the
// engine-wide phase-duration histogram (qhorn_phase_seconds), or a
// no-op when metrics are off. Verification phases are the root
// "verify" span and the per-family "verify/<Kind>" children; in batch
// mode the children cover bookkeeping only (the set was answered up
// front), so the root's observation is the one that bounds the asking.
func timePhase(cfg run.Config, name string) func() {
	if cfg.Ins.Metrics == nil {
		return func() {}
	}
	h := cfg.Ins.Metrics.Histogram(obs.MetricPhaseSeconds, obs.LatencyBuckets, "phase", name)
	begun := time.Now()
	return func() { h.Observe(time.Since(begun).Seconds()) }
}

// Instrumentation bundles the observability hooks of a verification
// run. It is the engine's shared instrumentation type — the same value
// threads through learning (learn.Instrumentation) and verification.
type Instrumentation = run.Instrumentation

// Run builds the verification set of qg and runs it against o under
// the given engine options: run.WithInstrumentation for spans and
// metrics, run.WithSteps for per-question steps, run.WithBatch for
// batched asking, run.WithFirstDisagreement to stop at the first
// disagreement, and run.WithCounter to count the questions. A budget,
// a noisy user or a transcript is an oracle wrapped around o
// (oracle.WithBudget, oracle.Noisy, oracle.Record).
func Run(qg query.Query, o oracle.Oracle, opts ...run.Option) (Result, error) {
	vs, err := Build(qg)
	if err != nil {
		return Result{}, err
	}
	return vs.RunWith(o, opts...), nil
}

// RunWith runs an already-built verification set under engine options
// (see Run). The set is asked exactly once, in its deterministic
// order.
func (vs Set) RunWith(o oracle.Oracle, opts ...run.Option) Result {
	cfg := run.New(opts...)
	return vs.runConfigured(cfg.Assemble(o), cfg)
}

// runConfigured is the single verification core. In batch mode the
// whole set is answered first — the A1–A4/N1–N2 questions are mutually
// independent, so a BatchOracle takes them in one call — then spans, steps and counters are emitted in set order,
// and disagreements keep the set's order. Batched spans carry a
// "mode: batch" attribute; their per-question durations are not
// meaningful, since the answers arrived before the spans opened.
// Serial mode opens each question's span before asking, so span
// durations cover the ask. FirstOnly ("mode: first") asks serially
// and stops at the first disagreement, with QuestionsAsked counting
// the questions actually posed; batch mode is ignored, since stopping
// early is the point.
func (vs Set) runConfigured(o oracle.Oracle, cfg run.Config) Result {
	batch := cfg.Batch && !cfg.FirstOnly
	attrs := []obs.Attr{
		obs.A("query", vs.Query.String()),
		obs.Af("questions", "%d", len(vs.Questions)),
	}
	if cfg.FirstOnly {
		attrs = append(attrs, obs.A("mode", "first"))
	} else if batch {
		attrs = append(attrs, obs.A("mode", "batch"))
	}
	root := cfg.Ins.Spans.StartSpan("verify", attrs...)
	defer root.End()
	defer timePhase(cfg, "verify")()

	counters := kindCounters{}
	var answers []bool
	if batch {
		answers = oracle.AskAll(o, vs.questions())
	}
	res := Result{Correct: true}
	for i, q := range vs.Questions {
		res.QuestionsAsked++
		sp := root.StartChild("verify/"+string(q.Kind),
			obs.A("about", q.About),
			obs.Af("expect", "%v", q.Expect))
		doneKind := timePhase(cfg, "verify/"+string(q.Kind))
		var got bool
		if batch {
			got = answers[i]
		} else {
			got = o.Ask(q.Set)
		}
		vs.observe(cfg, counters, q, got, &res, sp)
		sp.End()
		doneKind()
		if cfg.FirstOnly && !res.Correct {
			break
		}
	}
	root.Annotate(obs.Af("correct", "%v", res.Correct))
	return res
}

// questions collects the membership questions of the set in its
// deterministic order.
func (vs Set) questions() []boolean.Set {
	qs := make([]boolean.Set, len(vs.Questions))
	for i, q := range vs.Questions {
		qs[i] = q.Set
	}
	return qs
}

// kindCounters holds one run's verify counters by family and kind,
// resolved on first use so each question skips the registry's label
// formatting and lock.
type kindCounters map[[2]string]*obs.Counter

// inc counts one question of kind k into the named family; a nil
// registry is silent.
func (c kindCounters) inc(reg *obs.Registry, name string, k Kind) {
	if reg == nil {
		return
	}
	key := [2]string{name, string(k)}
	h, ok := c[key]
	if !ok {
		h = reg.Counter(name, "kind", string(k))
		c[key] = h
	}
	h.Inc()
}

// observe records one answered question: the step, the kind-labeled
// counters, and — on disagreement — the result entry and span event.
func (vs Set) observe(cfg run.Config, counters kindCounters, q Question, got bool, res *Result, sp *obs.Span) {
	if cfg.Ins.Steps != nil {
		cfg.Ins.Steps(run.Step{
			Phase:    "verify/" + string(q.Kind),
			Purpose:  q.About,
			Question: q.Set,
			Answer:   got,
		})
	}
	counters.inc(cfg.Ins.Metrics, obs.MetricVerifyQuestions, q.Kind)
	if got != q.Expect {
		res.Correct = false
		res.Disagreements = append(res.Disagreements, Disagreement{Question: q, Got: got})
		sp.Event("disagreement",
			obs.A("about", q.About),
			obs.Af("expect", "%v", q.Expect),
			obs.Af("got", "%v", got))
		counters.inc(cfg.Ins.Metrics, obs.MetricVerifyDisagreements, q.Kind)
	}
}
