package learn

// This file is the learner half of the composable run engine
// (docs/ENGINE.md): Run is the one entry point of the learners. It
// composes functional options from internal/run into one Config and
// constructs the single core learner path from the result; the
// algorithm, search strategy, ablations, steps, spans, metrics and
// batching are options of Run, not functions of their own.

import (
	"qhorn/internal/boolean"
	"qhorn/internal/oracle"
	"qhorn/internal/query"
	"qhorn/internal/run"
)

// The cross-cutting run types are shared with the verifier through
// internal/run.
type (
	// Instrumentation bundles the optional observability hooks of a
	// run; the zero value is silent. See run.Instrumentation.
	Instrumentation = run.Instrumentation
	// Step is one annotated membership question. See run.Step.
	Step = run.Step
	// Tracer observes learner questions; nil is silent. See
	// run.Tracer.
	Tracer = run.Tracer
	// Ablations disables role-preserving optimizations (E16). See
	// run.Ablations.
	Ablations = run.Ablations
)

// Run learns a query over u through the composable run engine:
// options select the algorithm, search strategy, ablations,
// instrumentation, batching and question counting, composing into one
// internal config instead of one exported function per combination.
//
//	q, st := learn.Run(u, user,
//	    run.WithAlgorithm(run.RolePreserving),
//	    run.WithBatch(),
//	    run.WithSteps(print))
//
// The default (no options) is the serial qhorn-1 learner of §3.1.
//
// run.WithBatch surfaces independent question sets through
// oracle.AskAll, so a BatchOracle takes each set in one call. A
// batched run asks exactly the questions — and reports exactly the
// per-phase counts — of the serial run; with a plain serial Oracle it
// degrades to asking the same questions one at a time. What is batched, per learner:
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
//     still searching. The per-head "lattice-search" spans are
//     omitted because the searches overlap in time; every question
//     event, step and metric is still emitted from the calling
//     goroutine in deterministic order. The conjunction descent of
//     §3.2.2 stays serial: each question's base embeds the tuples
//     discovered and pruned so far, so questions are sequentially
//     dependent by construction.
func Run(u boolean.Universe, o oracle.Oracle, opts ...run.Option) (query.Query, run.Stats) {
	cfg := run.New(opts...)
	o = cfg.Assemble(o)
	in := instr{u: u, ins: cfg.Ins}
	if cfg.Algorithm == run.RolePreserving {
		l := &rpLearner{u: u, o: o, ablations: cfg.Ablations, batch: cfg.Batch, in: in}
		return l.learn()
	}
	l := &qhorn1Learner{u: u, o: o, serial: cfg.Naive, batch: cfg.Batch, in: in}
	return l.learn()
}
