package oracle_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
)

// probeQuestions builds n small questions over u, distinct as long as
// n stays below 2^|u|.
func probeQuestions(u boolean.Universe, n int) []boolean.Set {
	qs := make([]boolean.Set, n)
	for i := range qs {
		qs[i] = boolean.NewSet(boolean.Tuple(i+1).Intersect(u.All()), u.All())
	}
	return qs
}

// TestAskAllSerialFallback pins AskAll's contract for a plain Oracle:
// questions are asked in order, answers are aligned with the input.
func TestAskAllSerialFallback(t *testing.T) {
	u := boolean.MustUniverse(4)
	var asked []string
	o := oracle.Func(func(s boolean.Set) bool {
		asked = append(asked, s.Key())
		return s.Size()%2 == 0
	})
	qs := probeQuestions(u, 5)
	answers := oracle.AskAll(o, qs)
	if len(answers) != len(qs) || len(asked) != len(qs) {
		t.Fatalf("asked %d, answered %d, want %d", len(asked), len(answers), len(qs))
	}
	for i, q := range qs {
		if asked[i] != q.Key() {
			t.Errorf("question %d asked out of order", i)
		}
		if answers[i] != (q.Size()%2 == 0) {
			t.Errorf("answer %d misaligned", i)
		}
	}
	if got := oracle.AskAll(o, nil); got != nil {
		t.Errorf("AskAll(nil) = %v, want nil", got)
	}
}

// TestBudgetBatchSemantics pins Budget.AskBatch: a batch that fits
// consumes its size; an overrunning batch asks exactly the remaining
// questions and then raises ErrBudget, like the serial path would.
func TestBudgetBatchSemantics(t *testing.T) {
	u := boolean.MustUniverse(4)
	var inner atomic.Int64
	b := oracle.WithBudget(oracle.Func(func(s boolean.Set) bool {
		inner.Add(1)
		return true
	}), 6, nil)
	oracle.AskAll(b, probeQuestions(u, 4))
	if b.Remaining() != 2 {
		t.Fatalf("Remaining = %d after a batch of 4 on budget 6", b.Remaining())
	}
	recovered := func() (r interface{}) {
		defer func() { r = recover() }()
		oracle.AskAll(b, probeQuestions(u, 5))
		return nil
	}()
	if _, ok := recovered.(oracle.ErrBudget); !ok {
		t.Fatalf("recovered %v, want ErrBudget", recovered)
	}
	if inner.Load() != 6 {
		t.Errorf("inner asked %d questions, want exactly the budget 6", inner.Load())
	}
}

// TestNoisyBatchFlipSequence pins the documented per-batch
// determinism: for a fixed seed, a batched Noisy oracle corrupts the
// same positions on every run, because flips are drawn in question
// order after the batch is answered.
func TestNoisyBatchFlipSequence(t *testing.T) {
	u := boolean.MustUniverse(4)
	qs := probeQuestions(u, 32)
	flips := func() []bool {
		n := oracle.Noisy(oracle.Func(func(boolean.Set) bool { return false }), 0.5, rand.New(rand.NewSource(7)))
		return oracle.AskAll(n, qs)
	}
	a, b := flips(), flips()
	someFlip := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip sequence not deterministic at %d", i)
		}
		someFlip = someFlip || a[i]
	}
	if !someFlip {
		t.Error("p=0.5 over 32 questions flipped nothing — rng not consulted?")
	}
}

// TestCounterAndTranscriptBatchAccounting pins that the batched paths
// of Counter and Transcript account exactly like their serial paths.
func TestCounterAndTranscriptBatchAccounting(t *testing.T) {
	u := boolean.MustUniverse(4)
	target := query.MustParse(u, "∃x1x2")
	qs := probeQuestions(u, 7)

	serialC := oracle.Count(oracle.Target(target), nil)
	for _, q := range qs {
		serialC.Ask(q)
	}
	reg := obs.NewRegistry()
	batchC := oracle.Count(oracle.Target(target), reg)
	tr := oracle.Record(batchC)
	answers := oracle.AskAll(tr, qs)

	if batchC.Questions != serialC.Questions || batchC.Tuples != serialC.Tuples || batchC.MaxTuples != serialC.MaxTuples {
		t.Errorf("batched counter (%d, %d, %d) != serial (%d, %d, %d)",
			batchC.Questions, batchC.Tuples, batchC.MaxTuples,
			serialC.Questions, serialC.Tuples, serialC.MaxTuples)
	}
	if got := reg.CounterValue(obs.MetricQuestions); got != int64(len(qs)) {
		t.Errorf("%s = %d, want %d", obs.MetricQuestions, got, len(qs))
	}
	// Batched questions are counted but not timed per ask.
	if got := reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets).Count(); got != 0 {
		t.Errorf("%s has %d samples after a batch, want 0", obs.MetricOracleAskSeconds, got)
	}
	entries := tr.Copy()
	if len(entries) != len(qs) {
		t.Fatalf("transcript has %d entries, want %d", len(entries), len(qs))
	}
	for i, e := range entries {
		if e.Question.Key() != qs[i].Key() || e.Answer != answers[i] {
			t.Errorf("transcript entry %d out of order or misanswered", i)
		}
	}
}

// TestBatchOverWrapperStack pins that a batch survives a realistic
// wrapper stack — Transcript over Counter over the shared tier — with
// consistent accounting at every layer, and that concurrent batches
// through one stack are race-clean.
func TestBatchOverWrapperStack(t *testing.T) {
	u := boolean.MustUniverse(5)
	target := query.MustParse(u, "∀x1 → x3 ∃x4x5")
	tier := oracle.NewSharedMemo(64, nil).Oracle("user", oracle.Target(target))
	counter := oracle.Count(tier, nil)
	tr := oracle.Record(counter)

	qs := probeQuestions(u, 20)
	got := oracle.AskAll(tr, qs)
	want := oracle.AskAll(oracle.Target(target), qs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stacked answer %d = %v, want %v", i, got[i], want[i])
		}
	}
	if counter.Questions != len(qs) || tr.Len() != len(qs) {
		t.Errorf("counter %d / transcript %d, want %d", counter.Questions, tr.Len(), len(qs))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oracle.AskAll(tr, qs)
		}()
	}
	wg.Wait()
}
