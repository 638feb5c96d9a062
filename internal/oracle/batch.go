package oracle

// This file implements the batch question structure. The paper's
// learners and verifier ask large sets of *independent* membership
// questions — the n head questions of §3.1.1/§3.2.1, the per-variable
// binary searches of Algorithms 2–3, the per-root lattice searches of
// §3.2.1, and the A1–A4/N1–N2 verification families of Fig. 6. The
// structure lets a user that can take a whole set at once (qhornd's
// answer exchange) receive it in one round trip without changing what
// is asked:
//
//   - BatchOracle extends Oracle with AskBatch, answering a slice of
//     independent questions with order-aligned results.
//   - AskAll is the polymorphic entry point callers use: one AskBatch
//     when available, a serial loop otherwise.
//
// Question and tuple accounting stays exactly deterministic: every
// wrapper in this package implements AskBatch with the same counter
// increments as the serial path, and the learners' differential tests
// (internal/difffuzz) enforce identical question counts between the
// serial and batched learners.

import "qhorn/internal/boolean"

// BatchOracle extends Oracle with AskBatch: answer a slice of
// independent membership questions, returning the answers aligned
// with the question order. The caller must not assume anything about
// the order in which the inner work happens, only about the result
// layout.
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
