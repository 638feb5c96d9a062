package oracle

// This file implements the parallel batched question engine. The
// paper's learners and verifier ask large sets of *independent*
// membership questions — the n head questions of §3.1.1/§3.2.1, the
// per-variable binary searches of Algorithms 2–3, the per-root
// lattice searches of §3.2.1, and the A1–A4/N1–N2 verification
// families of Fig. 6. The engine lets those sets be answered
// concurrently without changing what is asked:
//
//   - BatchOracle extends Oracle with AskBatch, answering a slice of
//     independent questions with order-aligned results.
//   - AskAll is the polymorphic entry point callers use: one AskBatch
//     when available, a serial loop otherwise.
//   - Pool is the worker-pool driver that turns any concurrency-safe
//     Oracle into a BatchOracle.
//
// Question and tuple accounting stays exactly deterministic: every
// wrapper in this package implements AskBatch with the same counter
// increments as the serial path, and the learners' differential tests
// (internal/difffuzz) enforce identical question counts between the
// serial and parallel learners.

import (
	"runtime"
	"sync"
	"time"

	"qhorn/internal/boolean"
	"qhorn/internal/obs"
)

// BatchOracle extends Oracle with AskBatch: answer a slice of
// independent membership questions, returning the answers aligned
// with the question order. Implementations may answer the questions
// concurrently; the caller must not assume anything about the order
// in which the inner work happens, only about the result layout.
type BatchOracle interface {
	Oracle
	AskBatch(qs []boolean.Set) []bool
}

// AskAll answers every question of qs through o: with one AskBatch
// call when o implements BatchOracle, serially in question order
// otherwise. Either way the returned slice is aligned with qs, so
// callers are agnostic to the oracle's batching capability.
func AskAll(o Oracle, qs []boolean.Set) []bool {
	if len(qs) == 0 {
		return nil
	}
	if b, ok := o.(BatchOracle); ok {
		return b.AskBatch(qs)
	}
	out := make([]bool, len(qs))
	for i, q := range qs {
		out[i] = o.Ask(q)
	}
	return out
}

// DefaultWorkers is the worker count Parallel substitutes for a
// non-positive request: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool is the worker-pool batch driver: AskBatch fans its questions
// out to at most Workers goroutines asking the inner oracle
// concurrently. The inner oracle must be safe for concurrent use —
// Target and every wrapper of this package are; the adaptive
// lower-bound adversaries (Adversary, PairAdversary, …) are not, and
// neither is Interactive, whose prompts would interleave.
//
// A panic in the inner oracle (e.g. an exhausted Budget) stops the
// batch — questions not yet started are skipped — and is re-raised on
// the AskBatch caller once every worker has finished.
type Pool struct {
	inner   Oracle
	workers int
	reg     *obs.Registry
}

// Parallel wraps inner with a worker pool of the given size; workers
// <= 0 selects DefaultWorkers. A non-nil registry records the engine
// metrics: the in-flight gauge (qhorn_oracle_in_flight), the batch
// counter and batch-size histogram, the per-batch latency histogram,
// and — worker-side, where each inner ask is bounded on its own even
// though answers overlap — the per-question ask-latency histogram
// (qhorn_oracle_ask_seconds) for batched questions.
func Parallel(inner Oracle, workers int, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{inner: inner, workers: workers, reg: reg}
}

// Workers reports the pool's concurrency cap.
func (p *Pool) Workers() int { return p.workers }

// Ask implements Oracle: single questions bypass the pool and only
// touch the in-flight gauge.
func (p *Pool) Ask(s boolean.Set) bool {
	g := p.reg.Gauge(obs.MetricOracleInFlight)
	g.Add(1)
	defer g.Add(-1)
	return p.inner.Ask(s)
}

// AskBatch implements BatchOracle, answering up to Workers questions
// concurrently. Results are aligned with qs no matter which worker
// answered which question.
func (p *Pool) AskBatch(qs []boolean.Set) []bool {
	if len(qs) == 0 {
		return nil
	}
	start := time.Now()
	p.reg.Counter(obs.MetricBatches).Inc()
	p.reg.Histogram(obs.MetricBatchSize, obs.BatchSizeBuckets).Observe(float64(len(qs)))
	answers := make([]bool, len(qs))
	workers := p.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	gauge := p.reg.Gauge(obs.MetricOracleInFlight)
	var askSeconds *obs.Histogram
	if p.reg != nil {
		askSeconds = p.reg.Histogram(obs.MetricOracleAskSeconds, obs.LatencyBuckets)
	}
	var (
		mu         sync.Mutex
		wg         sync.WaitGroup
		panicked   bool
		firstPanic interface{}
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if !panicked {
								panicked, firstPanic = true, r
							}
							mu.Unlock()
						}
					}()
					gauge.Add(1)
					defer gauge.Add(-1)
					if askSeconds != nil {
						askStart := time.Now()
						answers[i] = p.inner.Ask(qs[i])
						askSeconds.Observe(time.Since(askStart).Seconds())
						return
					}
					answers[i] = p.inner.Ask(qs[i])
				}()
			}
		}()
	}
	for i := range qs {
		mu.Lock()
		stop := panicked
		mu.Unlock()
		if stop {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicked {
		panic(firstPanic)
	}
	p.reg.Histogram(obs.MetricBatchSeconds, obs.LatencyBuckets).Observe(time.Since(start).Seconds())
	return answers
}
