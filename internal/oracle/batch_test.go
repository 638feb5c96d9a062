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

// TestPoolMatchesSerial pins the pool's core contract: AskBatch over a
// concurrency-safe oracle returns exactly the serial answers, aligned
// with the questions, for any worker count.
func TestPoolMatchesSerial(t *testing.T) {
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x5x6")
	qs := probeQuestions(u, 40)
	want := oracle.AskAll(oracle.Target(target), qs)
	for _, workers := range []int{1, 2, 7, 64} {
		pool := oracle.Parallel(oracle.Target(target), workers, nil)
		if pool.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", pool.Workers(), workers)
		}
		got := pool.AskBatch(qs)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: answer %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
		if pool.Ask(qs[0]) != want[0] {
			t.Errorf("workers=%d: single Ask disagrees with serial", workers)
		}
	}
	if w := oracle.Parallel(oracle.Target(target), 0, nil).Workers(); w != oracle.DefaultWorkers() {
		t.Errorf("Parallel(_, 0).Workers() = %d, want DefaultWorkers %d", w, oracle.DefaultWorkers())
	}
}

// TestPoolRecordsMetrics pins the engine's observability: batches,
// batch sizes, per-batch latency, and the in-flight gauge returning
// to zero.
func TestPoolRecordsMetrics(t *testing.T) {
	u := boolean.MustUniverse(4)
	reg := obs.NewRegistry()
	pool := oracle.Parallel(oracle.Target(query.MustParse(u, "∃x1")), 4, reg)
	qs := probeQuestions(u, 9)
	pool.AskBatch(qs)
	pool.AskBatch(qs[:3])
	pool.Ask(qs[0])
	if got := reg.CounterValue(obs.MetricBatches); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricBatches, got)
	}
	h := reg.Histogram(obs.MetricBatchSize, obs.BatchSizeBuckets)
	if h.Count() != 2 || h.Sum() != 12 {
		t.Errorf("batch size histogram count=%d sum=%v, want 2/12", h.Count(), h.Sum())
	}
	if reg.Histogram(obs.MetricBatchSeconds, obs.LatencyBuckets).Count() != 2 {
		t.Error("batch latency histogram missed samples")
	}
	if got := reg.Gauge(obs.MetricOracleInFlight).Value(); got != 0 {
		t.Errorf("in-flight gauge = %v after quiescence, want 0", got)
	}
}

// TestPoolPropagatesBudgetPanic pins panic propagation: a Budget
// exhausted mid-batch re-raises ErrBudget on the AskBatch caller with
// exactly Limit questions admitted — never Limit+workers.
func TestPoolPropagatesBudgetPanic(t *testing.T) {
	u := boolean.MustUniverse(4)
	var inner atomic.Int64
	counted := oracle.Func(func(s boolean.Set) bool {
		inner.Add(1)
		return true
	})
	budget := oracle.WithBudget(counted, 5, nil)
	pool := oracle.Parallel(budget, 3, nil)
	recovered := func() (r interface{}) {
		defer func() { r = recover() }()
		pool.AskBatch(probeQuestions(u, 12))
		return nil
	}()
	if _, ok := recovered.(oracle.ErrBudget); !ok {
		t.Fatalf("recovered %v, want ErrBudget", recovered)
	}
	if got := inner.Load(); got != 5 {
		t.Errorf("inner oracle asked %d questions, want exactly the budget 5", got)
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
		pool := oracle.Parallel(oracle.Func(func(boolean.Set) bool { return false }), 4, nil)
		n := oracle.Noisy(pool, 0.5, rand.New(rand.NewSource(7)))
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

// TestPoolOverWrapperStack pins that a batch survives a realistic
// wrapper stack — Transcript over Counter over the shared tier over
// Pool — with consistent accounting at every layer.
func TestPoolOverWrapperStack(t *testing.T) {
	u := boolean.MustUniverse(5)
	target := query.MustParse(u, "∀x1 → x3 ∃x4x5")
	pool := oracle.Parallel(oracle.Target(target), 4, nil)
	tier := oracle.NewSharedMemo(64, nil).Oracle("user", pool)
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
