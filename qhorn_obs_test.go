package qhorn_test

import (
	"strings"
	"testing"

	"qhorn"
)

// TestObservedLearnersThroughFacade: learning under
// WithInstrumentation produces the same queries as the plain learners
// while filling the span tree and the metrics registry.
func TestObservedLearnersThroughFacade(t *testing.T) {
	u := qhorn.MustUniverse(6)
	target := qhorn.MustParseQuery(u, "∀x1x4 → x5 ∃x2x3")

	tree := qhorn.NewTreeSink()
	ins := qhorn.Instrumentation{
		Spans:   qhorn.NewSpanTracer(tree),
		Metrics: qhorn.NewMetricsRegistry(),
	}
	learned, stats := qhorn.Learn(u, qhorn.TargetOracle(target),
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving), qhorn.WithInstrumentation(ins))
	if !learned.Equivalent(target) {
		t.Fatalf("observed learner diverged: %s", learned)
	}
	if stats.Total() == 0 {
		t.Fatal("no questions counted")
	}
	if got := ins.Metrics.SumCounter("qhorn_questions_by_phase_total"); got != int64(stats.Total()) {
		t.Errorf("metrics counted %d questions, stats %d", got, stats.Total())
	}
	if spanNames := tree.SpanNames(); len(spanNames) == 0 {
		t.Error("no spans recorded by the observed learner")
	}

	q1target := qhorn.MustParseQuery(qhorn.MustUniverse(4), "∀x1x2 → x3 ∃x4")
	q1, q1stats := qhorn.Learn(q1target.U, qhorn.TargetOracle(q1target), qhorn.WithInstrumentation(qhorn.Instrumentation{
		Spans: qhorn.NewSpanTracer(qhorn.NewTreeSink()),
	}))
	if !q1.Equivalent(q1target) || q1stats.Total() == 0 {
		t.Fatalf("observed qhorn-1 learner diverged: %s (%d questions)", q1, q1stats.Total())
	}
}

// TestVerifyObservedThroughFacade: verifying under WithInstrumentation
// agrees with Verify and tolerates nil hooks.
func TestVerifyObservedThroughFacade(t *testing.T) {
	u := qhorn.MustUniverse(5)
	q := qhorn.MustParseQuery(u, "∀x1 → x2 ∃x3x4 ∃x5")
	reg := qhorn.NewMetricsRegistry()
	res, err := qhorn.Verify(q, qhorn.TargetOracle(q), qhorn.WithInstrumentation(qhorn.Instrumentation{
		Spans:   qhorn.NewSpanTracer(qhorn.NewTreeSink()),
		Metrics: reg,
	}))
	if err != nil || !res.Correct {
		t.Fatalf("self-verify: correct=%v err=%v", res.Correct, err)
	}
	if got := reg.SumCounter("qhorn_verify_questions_total"); got != int64(res.QuestionsAsked) {
		t.Errorf("metrics counted %d verify questions, result says %d", got, res.QuestionsAsked)
	}
	if res, err := qhorn.Verify(q, qhorn.TargetOracle(q), qhorn.WithInstrumentation(qhorn.Instrumentation{})); err != nil || !res.Correct {
		t.Errorf("nil hooks: correct=%v err=%v", res.Correct, err)
	}
	wrong := qhorn.MustParseQuery(u, "∀x1 → x3 ∃x5")
	if res, err := qhorn.Verify(wrong, qhorn.TargetOracle(q), qhorn.WithInstrumentation(qhorn.Instrumentation{Metrics: reg})); err != nil || res.Correct {
		t.Errorf("wrong query verified: correct=%v err=%v", res.Correct, err)
	}
}

// TestSinkConstructorsThroughFacade: TreeSink renders the span
// hierarchy, JSONLSink streams it as JSON lines.
func TestSinkConstructorsThroughFacade(t *testing.T) {
	tree := qhorn.NewTreeSink()
	var jsonl strings.Builder
	tracer := qhorn.NewSpanTracer(tree, qhorn.NewJSONLSink(&jsonl))
	span := tracer.StartSpan("root")
	span.Event("hello")
	span.End()

	var rendered strings.Builder
	tree.Render(&rendered)
	if !strings.Contains(rendered.String(), "root") {
		t.Errorf("tree rendering missing span:\n%s", rendered.String())
	}
	if !strings.Contains(jsonl.String(), `"root"`) || !strings.Contains(jsonl.String(), `"hello"`) {
		t.Errorf("jsonl stream missing span or event:\n%s", jsonl.String())
	}
}

// TestCountingOracleIntoThroughFacade: given a registry, CountingOracle
// mirrors its counts into it at the oracle boundary.
func TestCountingOracleIntoThroughFacade(t *testing.T) {
	u := qhorn.MustUniverse(4)
	target := qhorn.MustParseQuery(u, "∀x1x2 → x3 ∃x4")
	reg := qhorn.NewMetricsRegistry()
	counted := qhorn.CountingOracle(qhorn.TargetOracle(target), reg)
	learned, stats := qhorn.Learn(u, counted)
	if !learned.Equivalent(target) {
		t.Fatalf("learner diverged: %s", learned)
	}
	questions, tuples, _ := counted.Snapshot()
	if questions != stats.Total() {
		t.Errorf("counter saw %d questions, stats %d", questions, stats.Total())
	}
	if got := reg.SumCounter("qhorn_questions_total"); got != int64(questions) {
		t.Errorf("registry counted %d questions, counter %d", got, questions)
	}
	if tuples == 0 {
		t.Error("no tuples counted")
	}
}

// TestNewUniverseAndParseQueryErrors: the error-returning facade
// constructors reject bad input and accept good input.
func TestNewUniverseAndParseQueryErrors(t *testing.T) {
	if _, err := qhorn.NewUniverse(65); err == nil {
		t.Error("NewUniverse(65) succeeded, want error (max 64)")
	}
	u, err := qhorn.NewUniverse(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qhorn.ParseQuery(u, "∃x9"); err == nil {
		t.Error("ParseQuery out-of-universe variable succeeded")
	}
	q, err := qhorn.ParseQuery(u, "∀x1 → x2 ∃x3")
	if err != nil || q.Size() != 2 {
		t.Errorf("ParseQuery = %v, %v", q, err)
	}
}
