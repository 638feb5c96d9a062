package verify_test

import (
	"math/rand"
	"reflect"
	"testing"

	"qhorn/internal/difffuzz"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/run"
	"qhorn/internal/verify"
)

// TestRunBatchMatchesSerial pins the batched verifier against the
// serial one on generated verification cases — including mutant
// intents, where the disagreement list (content and order) must match
// exactly, not just the verdict.
func TestRunBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	checked, incorrect := 0, 0
	for i := 0; i < 80; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassQhorn1, 2, 7)
		given := c.Hidden
		if m, _, ok := difffuzz.Mutant(rng, c.Hidden); ok && i%2 == 1 {
			given = m
		}
		vs, err := verify.Build(given)
		if err != nil {
			continue
		}
		checked++
		serial := vs.RunWith(oracle.Target(c.Hidden))
		batched := vs.RunWith(oracle.Target(c.Hidden), run.WithBatch())
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("given %s vs hidden %s: serial %+v, batched %+v", given, c.Hidden, serial, batched)
		}
		if !serial.Correct {
			incorrect++
		}
	}
	if checked == 0 || incorrect == 0 {
		t.Fatalf("weak test: %d cases checked, %d incorrect verdicts — disagreement ordering never exercised", checked, incorrect)
	}
}

// TestRunObservedBatchMatchesSerial pins the observed batched run
// (run.WithBatch plus run.WithInstrumentation): identical Result and
// identical per-kind question and disagreement counters.
func TestRunObservedBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 20; i++ {
		c := difffuzz.GenCase(rng, difffuzz.ClassRP, 2, 6)
		given := c.Hidden
		if m, _, ok := difffuzz.Mutant(rng, c.Hidden); ok && i%2 == 1 {
			given = m
		}
		vs, err := verify.Build(given)
		if err != nil {
			continue
		}
		serialReg, batchReg := obs.NewRegistry(), obs.NewRegistry()
		serial := vs.RunWith(oracle.Target(c.Hidden), run.WithInstrumentation(verify.Instrumentation{Metrics: serialReg}))
		batched := vs.RunWith(oracle.Target(c.Hidden), run.WithBatch(), run.WithInstrumentation(verify.Instrumentation{Metrics: batchReg}))
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("given %s vs hidden %s: serial %+v, batched %+v", given, c.Hidden, serial, batched)
		}
		for _, kind := range []verify.Kind{verify.A1, verify.A2, verify.A3, verify.A4, verify.N1, verify.N2} {
			sq := serialReg.CounterValue(obs.MetricVerifyQuestions, "kind", string(kind))
			bq := batchReg.CounterValue(obs.MetricVerifyQuestions, "kind", string(kind))
			if sq != bq {
				t.Errorf("given %s: %s questions serial %d, batched %d", given, kind, sq, bq)
			}
			sd := serialReg.CounterValue(obs.MetricVerifyDisagreements, "kind", string(kind))
			bd := batchReg.CounterValue(obs.MetricVerifyDisagreements, "kind", string(kind))
			if sd != bd {
				t.Errorf("given %s: %s disagreements serial %d, batched %d", given, kind, sd, bd)
			}
		}
	}
}

// TestVerifyBatchVerdict pins the batched entry point's verdict: an
// equivalent intent verifies with the batch question structure.
func TestVerifyBatchVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := difffuzz.GenCase(rng, difffuzz.ClassQhorn1, 4, 6)
	res, err := verify.Run(c.Hidden, oracle.Target(c.Hidden), run.WithBatch())
	if err != nil {
		t.Fatalf("batched Run: %v", err)
	}
	if !res.Correct {
		t.Errorf("equivalent intent rejected: %+v", res)
	}
}
