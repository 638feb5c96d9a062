package qhorn_test

// Facade tests for the composable run engine surface: Learn / Verify,
// every re-exported option and the oracle wrappers composed around
// the user (docs/ENGINE.md), exercised end to end.

import (
	"math/rand"
	"testing"

	"qhorn"
)

func engineFixture(t *testing.T) (qhorn.Universe, qhorn.Query) {
	t.Helper()
	u := qhorn.MustUniverse(4)
	return u, qhorn.MustParseQuery(u, "∀x1 → x2 ∃x3x4")
}

// TestLearnDefaults: no options learns qhorn-1 serially.
func TestLearnDefaults(t *testing.T) {
	u, intended := engineFixture(t)
	q, stats := qhorn.Learn(u, qhorn.TargetOracle(intended))
	if !q.Equivalent(intended) {
		t.Errorf("learned %s, want ≡ %s", q, intended)
	}
	if stats.Total() == 0 {
		t.Error("no questions counted")
	}
}

// TestLearnOptionsCompose: algorithm, batching, steps and
// instrumentation compose on one call over a budgeted user and still
// learn exactly.
func TestLearnOptionsCompose(t *testing.T) {
	u, intended := engineFixture(t)
	serialQ, serialStats := qhorn.Learn(u, qhorn.TargetOracle(intended),
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))

	var steps int
	reg := qhorn.NewMetricsRegistry()
	budget := qhorn.BudgetOracle(qhorn.TargetOracle(intended), serialStats.Total(), reg)
	q, stats := qhorn.Learn(u, budget,
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving),
		qhorn.WithBatch(),
		qhorn.WithSteps(func(qhorn.TraceStep) { steps++ }),
		qhorn.WithInstrumentation(qhorn.Instrumentation{Metrics: reg}))
	if !q.Equivalent(serialQ) {
		t.Errorf("optioned run learned %s, serial learned %s", q, serialQ)
	}
	if stats != serialStats {
		t.Errorf("optioned stats %+v, serial %+v", stats, serialStats)
	}
	if steps != stats.Total() {
		t.Errorf("step tracer saw %d questions, stats count %d", steps, stats.Total())
	}
	if budget.Remaining() != 0 {
		t.Errorf("budget has %d questions left, want 0", budget.Remaining())
	}
}

// TestLearnNaiveAndBatch: the naive baseline and the bare batch
// structure also learn exactly.
func TestLearnNaiveAndBatch(t *testing.T) {
	u, intended := engineFixture(t)
	q, _ := qhorn.Learn(u, qhorn.TargetOracle(intended), qhorn.WithNaiveSearch())
	if !q.Equivalent(intended) {
		t.Errorf("naive learned %s", q)
	}
	q, _ = qhorn.Learn(u, qhorn.TargetOracle(intended), qhorn.WithBatch())
	if !q.Equivalent(intended) {
		t.Errorf("batch learned %s", q)
	}
}

// TestLearnAblated: ablations cost questions, never exactness.
func TestLearnAblated(t *testing.T) {
	u, intended := engineFixture(t)
	q, _ := qhorn.Learn(u, qhorn.TargetOracle(intended),
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving),
		qhorn.WithAblations(qhorn.Ablations{NoGuaranteeSeeds: true, SerialPrune: true}))
	if !q.Equivalent(intended) {
		t.Errorf("ablated run learned %s", q)
	}
}

// TestLearnWithNoise: a fully lying user (p=1) derails learning — the
// noisy oracle demonstrably sits between the learner and the user.
func TestLearnWithNoise(t *testing.T) {
	u, intended := engineFixture(t)
	rng := rand.New(rand.NewSource(1))
	q, _ := qhorn.Learn(u, qhorn.NoisyOracle(qhorn.TargetOracle(intended), 1, rng),
		qhorn.WithAlgorithm(qhorn.AlgorithmRolePreserving))
	if q.Equivalent(intended) {
		t.Error("learning from an always-lying user still matched the intent")
	}
}

// TestVerifyQ: the facade's Verify runs the full set by default and
// honors WithFirstDisagreement and WithBatch.
func TestVerifyQ(t *testing.T) {
	u, intended := engineFixture(t)
	res, err := qhorn.Verify(intended, qhorn.TargetOracle(intended))
	if err != nil || !res.Correct {
		t.Fatalf("Verify on the intent: %+v, %v", res, err)
	}

	wrong := qhorn.MustParseQuery(u, "∀x1 → x3 ∃x3x4")
	full, err := qhorn.Verify(wrong, qhorn.TargetOracle(intended))
	if err != nil || full.Correct {
		t.Fatalf("Verify on a wrong query: %+v, %v", full, err)
	}
	first, err := qhorn.Verify(wrong, qhorn.TargetOracle(intended), qhorn.WithFirstDisagreement())
	if err != nil || first.Correct {
		t.Fatalf("first-only verify: %+v, %v", first, err)
	}
	if len(first.Disagreements) != 1 {
		t.Errorf("first-only found %d disagreements, want 1", len(first.Disagreements))
	}
	if first.QuestionsAsked > full.QuestionsAsked {
		t.Errorf("first-only asked %d questions, full set is %d", first.QuestionsAsked, full.QuestionsAsked)
	}
	notRP := qhorn.MustParseQuery(u, "∀x1 → x2 ∀x2 → x3")
	if _, err := qhorn.Verify(notRP, qhorn.TargetOracle(intended)); err == nil {
		t.Error("Verify accepted a non-role-preserving query")
	}

	batch, err := qhorn.Verify(wrong, qhorn.TargetOracle(intended), qhorn.WithBatch())
	if err != nil || batch.Correct != full.Correct || batch.QuestionsAsked != full.QuestionsAsked {
		t.Errorf("batched verify %+v differs from serial %+v (err %v)", batch, full, err)
	}
}

// TestParseAlgorithm covers the facade spelling round trip.
func TestParseAlgorithm(t *testing.T) {
	a, err := qhorn.ParseAlgorithm("rp")
	if err != nil || a != qhorn.AlgorithmRolePreserving {
		t.Errorf("ParseAlgorithm(rp) = %v, %v", a, err)
	}
	a, err = qhorn.ParseAlgorithm("qhorn1")
	if err != nil || a != qhorn.AlgorithmQhorn1 {
		t.Errorf("ParseAlgorithm(qhorn1) = %v, %v", a, err)
	}
	if _, err := qhorn.ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm accepted garbage")
	}
}

// TestParseSet covers the facade's set parser.
func TestParseSet(t *testing.T) {
	u := qhorn.MustUniverse(3)
	s, err := qhorn.ParseSet(u, "{110, 001}")
	if err != nil || s.Size() != 2 {
		t.Errorf("ParseSet = %v, %v", s, err)
	}
	if _, err := qhorn.ParseSet(u, "{1111}"); err == nil {
		t.Error("ParseSet accepted a tuple wider than the universe")
	}
}
