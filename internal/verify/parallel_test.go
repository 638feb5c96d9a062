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

// TestRunParallelMatchesRun pins the batched verifier against the
// serial one on generated verification cases — including mutant
// intents, where the disagreement list (content and order) must match
// exactly, not just the verdict.
func TestRunParallelMatchesRun(t *testing.T) {
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
		for _, workers := range []int{1, 4} {
			serial := vs.Run(oracle.Target(c.Hidden))
			parallel := vs.RunWith(oracle.Parallel(oracle.Target(c.Hidden), workers, nil), run.WithBatch())
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("given %s vs hidden %s (workers %d): serial %+v, parallel %+v",
					given, c.Hidden, workers, serial, parallel)
			}
			if !serial.Correct {
				incorrect++
			}
		}
	}
	if checked == 0 || incorrect == 0 {
		t.Fatalf("weak test: %d cases checked, %d incorrect verdicts — disagreement ordering never exercised", checked, incorrect)
	}
}

// TestRunParallelObservedMatchesObserved pins the observed batched
// run (run.WithBatch plus run.WithInstrumentation): identical Result, identical per-kind question and disagreement
// counters, and a complete span stream.
func TestRunParallelObservedMatchesObserved(t *testing.T) {
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
		serialReg, parallelReg := obs.NewRegistry(), obs.NewRegistry()
		serial := vs.RunWith(oracle.Target(c.Hidden), run.WithInstrumentation(verify.Instrumentation{Metrics: serialReg}))
		parallel := vs.RunWith(oracle.Parallel(oracle.Target(c.Hidden), 4, nil), run.WithBatch(), run.WithInstrumentation(verify.Instrumentation{Metrics: parallelReg}))
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("given %s vs hidden %s: serial %+v, parallel %+v", given, c.Hidden, serial, parallel)
		}
		for _, kind := range []verify.Kind{verify.A1, verify.A2, verify.A3, verify.A4, verify.N1, verify.N2} {
			sq := serialReg.CounterValue(obs.MetricVerifyQuestions, "kind", string(kind))
			pq := parallelReg.CounterValue(obs.MetricVerifyQuestions, "kind", string(kind))
			if sq != pq {
				t.Errorf("given %s: %s questions serial %d, parallel %d", given, kind, sq, pq)
			}
			sd := serialReg.CounterValue(obs.MetricVerifyDisagreements, "kind", string(kind))
			pd := parallelReg.CounterValue(obs.MetricVerifyDisagreements, "kind", string(kind))
			if sd != pd {
				t.Errorf("given %s: %s disagreements serial %d, parallel %d", given, kind, sd, pd)
			}
		}
	}
}

// TestVerifyParallelVerdict pins the batched entry point's verdict:
// an equivalent intent verifies through a worker pool.
func TestVerifyParallelVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := difffuzz.GenCase(rng, difffuzz.ClassQhorn1, 4, 6)
	pool := oracle.Parallel(oracle.Target(c.Hidden), 4, nil)
	res, err := verify.Run(c.Hidden, pool, run.WithBatch())
	if err != nil {
		t.Fatalf("batched Run: %v", err)
	}
	if !res.Correct {
		t.Errorf("equivalent intent rejected: %+v", res)
	}
}
