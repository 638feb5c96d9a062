package learn

// This file exposes the batch-mode learners of the parallel question
// engine (docs/PARALLELISM.md). The parallel variants ask exactly the
// questions — and report exactly the per-phase counts — of their
// serial counterparts; they differ only in surfacing independent
// question sets through oracle.AskAll so that a BatchOracle (e.g. oracle.Parallel around a simulated user) answers
// them concurrently. With a plain serial Oracle the batch mode
// degrades to asking the same questions one at a time.
//
// What is batched, per learner:
//
//   - qhorn-1 (§3.1): the n head questions of phase 1 form one batch;
//     each FindAll level of the body and existential searches
//     (Algorithm 3) forms one batch; the co-head separation questions
//     of Algorithm 5 form one batch. The adaptive binary searches
//     (Find, GetHead) stay serial — each question depends on the
//     previous answer.
//   - role-preserving (§3.2): the n head questions form one batch;
//     the per-head lattice searches of §3.2.1 are stepped in lockstep,
//     one batch per round holding the next question of every head
//     still searching.
//     The conjunction descent of §3.2.2 stays serial: each question's
//     base embeds the tuples discovered and pruned so far, so
//     questions are sequentially dependent by construction.

import (
	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// Qhorn1Parallel is Qhorn1 with the independent question sets issued
// as batches. Equivalent output and identical question counts to
// Qhorn1; wall time drops when o answers batches concurrently. It is
// a thin wrapper over the run engine — learn.Run(u, o,
// run.WithBatch()) — and does not wrap a pool itself: the caller
// brings the BatchOracle (or use run.WithParallel(n) to have the
// engine assemble one).
func Qhorn1Parallel(u boolean.Universe, o oracle.Oracle) (query.Query, Qhorn1Stats) {
	q, s := Run(u, o, run.WithBatch())
	return q, qhorn1Stats(s)
}

// Qhorn1ParallelObserved is Qhorn1Parallel with observability. All
// accounting — spans, steps, metrics — happens in the calling
// goroutine, in deterministic question order.
func Qhorn1ParallelObserved(u boolean.Universe, o oracle.Oracle, ins Instrumentation) (query.Query, Qhorn1Stats) {
	q, s := Run(u, o, run.WithBatch(), run.WithInstrumentation(ins))
	return q, qhorn1Stats(s)
}

// RolePreservingParallel is RolePreserving with the independent
// question sets issued as batches and the per-head lattice searches
// stepped in lockstep rounds. Equivalent output and identical
// question counts to RolePreserving. Thin wrapper over the run
// engine, like Qhorn1Parallel.
func RolePreservingParallel(u boolean.Universe, o oracle.Oracle) (query.Query, RPStats) {
	q, s := Run(u, o, run.WithAlgorithm(run.RolePreserving), run.WithBatch())
	return q, rpStats(s)
}

// RolePreservingParallelObserved is RolePreservingParallel with
// observability. The per-head "lattice-search" spans are omitted —
// the searches overlap in time — but every question event, step, and
// metric is emitted from the calling goroutine in deterministic
// order.
func RolePreservingParallelObserved(u boolean.Universe, o oracle.Oracle, ins Instrumentation) (query.Query, RPStats) {
	q, s := Run(u, o, run.WithAlgorithm(run.RolePreserving), run.WithBatch(), run.WithInstrumentation(ins))
	return q, rpStats(s)
}
