package oracle_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qhorn/internal/boolean"
	"qhorn/internal/learn"
	"qhorn/internal/obs"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// TestSharedInstrumentationIsRaceClean runs two learners concurrently
// against one shared Counter, Transcript and metrics registry — the
// shape of a concurrent experiment sweep. Run under -race (CI does)
// this pins the mutex protection of the instrumentation wrappers.
func TestSharedInstrumentationIsRaceClean(t *testing.T) {
	// The target is both qhorn-1 and role-preserving, so either
	// learner recovers it exactly from the shared oracle.
	u := boolean.MustUniverse(6)
	target := query.MustParse(u, "∀x1x2 → x4 ∃x1x2 → x5 ∃x3 → x6")
	reg := obs.NewRegistry()
	counter := oracle.Count(oracle.Target(target), reg)
	transcript := oracle.Record(counter)

	var wg sync.WaitGroup
	results := make([]query.Query, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0], _ = learn.Run(u, transcript, run.WithAlgorithm(run.RolePreserving))
	}()
	go func() {
		defer wg.Done()
		results[1], _ = learn.Run(u, transcript)
	}()
	// Concurrent readers exercise the snapshot paths while the
	// learners are mid-flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			counter.Snapshot()
			transcript.Len()
		}
	}()
	wg.Wait()
	<-done

	for i, got := range results {
		if !got.Equivalent(target) {
			t.Errorf("learner %d under shared instrumentation got %s", i, got)
		}
	}
	questions, tuples, maxT := counter.Snapshot()
	if questions == 0 || tuples < questions || maxT == 0 {
		t.Errorf("counter snapshot (%d, %d, %d) implausible", questions, tuples, maxT)
	}
	if transcript.Len() != questions {
		t.Errorf("transcript has %d entries, counter says %d questions", transcript.Len(), questions)
	}
	if got := reg.CounterValue(obs.MetricQuestions); got != int64(questions) {
		t.Errorf("registry %s = %d, counter = %d", obs.MetricQuestions, got, questions)
	}
}

// TestCountIntoRecordsMetrics pins the Counter→Registry adapter: one
// wrapped oracle call updates every metric family the adapter owns.
func TestCountIntoRecordsMetrics(t *testing.T) {
	u := boolean.MustUniverse(3)
	target := query.MustParse(u, "∃x1")
	reg := obs.NewRegistry()
	c := oracle.Count(oracle.Target(target), reg)

	q := boolean.NewSet(u.All(), u.All().Without(0))
	c.Ask(q)
	c.Ask(q)

	if got := reg.CounterValue(obs.MetricQuestions); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MetricQuestions, got)
	}
	if got := reg.CounterValue(obs.MetricTuples); got != 4 {
		t.Errorf("%s = %d, want 4", obs.MetricTuples, got)
	}
	h := reg.Histogram(obs.MetricTuplesPerQuestion, obs.TuplesPerQuestionBuckets)
	if h.Count() != 2 || h.Sum() != 4 {
		t.Errorf("tuple histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	if reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets).Count() != 2 {
		t.Error("latency histogram missed samples")
	}
	if c.Questions != 2 || c.Tuples != 4 || c.MaxTuples != 2 {
		t.Errorf("counter fields (%d, %d, %d)", c.Questions, c.Tuples, c.MaxTuples)
	}
}

// TestTranscriptCopyIsIndependent guards the snapshot semantics of
// Transcript.Copy.
func TestTranscriptCopyIsIndependent(t *testing.T) {
	u := boolean.MustUniverse(2)
	tr := oracle.Record(oracle.Target(query.MustParse(u, "∃x1")))
	tr.Ask(boolean.NewSet(u.All()))
	snap := tr.Copy()
	tr.Ask(boolean.NewSet(u.All().Without(0)))
	if len(snap) != 1 || tr.Len() != 2 {
		t.Errorf("copy len %d, live len %d", len(snap), tr.Len())
	}
}

// TestBudgetConcurrentAskersExact hammers one Budget of L with far
// more concurrent asks than L. Under -race this pins the fix: exactly
// L questions reach the inner oracle (never L+workers), every excess
// ask panics ErrBudget, and Used never tears.
func TestBudgetConcurrentAskersExact(t *testing.T) {
	u := boolean.MustUniverse(4)
	const limit = 25
	var inner atomicCounter
	b := oracle.WithBudget(oracle.Func(func(boolean.Set) bool {
		inner.add(1)
		return true
	}), limit, nil)

	var wg sync.WaitGroup
	var budgetPanics atomicCounter
	q := boolean.NewSet(u.All())
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(oracle.ErrBudget); !ok {
								panic(r)
							}
							budgetPanics.add(1)
						}
					}()
					b.Ask(q)
				}()
			}
		}()
	}
	wg.Wait()
	if got := inner.load(); got != limit {
		t.Errorf("inner oracle asked %d questions, want exactly the budget %d", got, limit)
	}
	if got := budgetPanics.load(); got != 100-limit {
		t.Errorf("%d asks panicked ErrBudget, want %d", got, 100-limit)
	}
	if b.Remaining() != 0 {
		t.Errorf("Remaining = %d after exhaustion", b.Remaining())
	}
}

// TestNoisyConcurrentAskersRaceClean hammers one Noisy wrapper from
// many goroutines. Under -race this pins the rng mutex: *rand.Rand is
// not concurrency-safe, and the pre-fix wrapper raced (and could
// corrupt the rng state) the moment two askers overlapped.
func TestNoisyConcurrentAskersRaceClean(t *testing.T) {
	u := boolean.MustUniverse(4)
	n := oracle.Noisy(oracle.Func(func(boolean.Set) bool { return true }), 0.3, rand.New(rand.NewSource(11)))
	qs := probeQuestions(u, 8)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				n.Ask(qs[(g+r)%len(qs)])
			}
		}(g)
	}
	wg.Wait()
}

// atomicCounter is a tiny test helper.
type atomicCounter struct{ v int64 }

func (c *atomicCounter) add(n int64) { atomic.AddInt64(&c.v, n) }
func (c *atomicCounter) load() int64 { return atomic.LoadInt64(&c.v) }
