package query

import (
	"fmt"
	"math/bits"
	"sort"

	"qhorn/internal/boolean"
)

// This file implements the bit-sliced evaluation kernel
// (docs/PERFORMANCE.md). Compiled.Eval answers one (query, object)
// pair per call; bulk consumers like the brute answer matrix evaluate
// the same object against thousands of candidate queries, re-scanning
// the object's tuples once per candidate even though most candidates
// share requirement masks and Horn rules. A Slab transposes that loop:
// it packs up to 64 candidates column-wise — one bit per candidate —
// dedupes the masks and rules they share, and answers one object for
// the whole word of candidates in a single two-pass sweep.

// SlabWidth is the number of candidates one Slab packs: one per bit of
// the EvalAll result word.
const SlabWidth = 64

// Slab is the bit-sliced evaluation form of up to 64 queries. Each
// distinct requirement mask and each distinct fused Horn rule appears
// once, tagged with the owner word naming the candidates it belongs
// to; EvalAll starts from the all-live word and clears owner bits as
// requirements fail to be witnessed or rules are violated. A Slab is
// immutable after CompileSlab and safe for concurrent use; EvalAll
// performs no heap allocation.
type Slab struct {
	queries []Query
	full    uint64 // low len(queries) bits set
	// reqs holds the distinct required conjunctions across all
	// candidates, sorted largest-popcount first like Compiled.req.
	reqs []slabReq
	// rules holds the distinct fused violation rules, sorted by
	// ascending body like Compiled.rules so the per-tuple scan can stop
	// at the first body numerically above the tuple.
	rules []slabRule
}

// slabReq is one distinct required conjunction and the candidates
// (owner bits) that require it.
type slabReq struct{ mask, owners uint64 }

// slabRule is one distinct fused Horn rule and the candidates that
// carry it. Tuple w violates the rule iff w & guar == body, exactly as
// in Compiled.
type slabRule struct{ guar, body, owners uint64 }

// CompileSlab packs the queries — at most SlabWidth of them — into one
// bit-sliced kernel. Candidate i owns bit i of every owner word and of
// the EvalAll result. Compilation dedupes requirement masks and rules
// across candidates, so slabs over structurally similar candidate
// lattices shrink well below 64 distinct entries per pass.
func CompileSlab(queries []Query) *Slab {
	if len(queries) == 0 || len(queries) > SlabWidth {
		panic(fmt.Sprintf("query: CompileSlab: %d queries, want 1..%d", len(queries), SlabWidth))
	}
	s := &Slab{queries: queries}
	if len(queries) == SlabWidth {
		s.full = ^uint64(0)
	} else {
		s.full = 1<<uint(len(queries)) - 1
	}
	reqOwners := make(map[uint64]uint64)
	ruleOwners := make(map[rule]uint64)
	for i, q := range queries {
		bit := uint64(1) << uint(i)
		for _, e := range q.Exprs {
			switch e.Quant {
			case Forall:
				body := uint64(e.Body)
				guar := body | uint64(1)<<uint(e.Head)
				reqOwners[guar] |= bit
				ruleOwners[rule{guar: guar, body: body}] |= bit
			case Exists:
				reqOwners[uint64(e.Vars())] |= bit
			}
		}
	}
	s.reqs = make([]slabReq, 0, len(reqOwners))
	for m, owners := range reqOwners {
		s.reqs = append(s.reqs, slabReq{mask: m, owners: owners})
	}
	sort.Slice(s.reqs, func(i, j int) bool {
		pi, pj := bits.OnesCount64(s.reqs[i].mask), bits.OnesCount64(s.reqs[j].mask)
		if pi != pj {
			return pi > pj
		}
		return s.reqs[i].mask > s.reqs[j].mask
	})
	s.rules = make([]slabRule, 0, len(ruleOwners))
	for r, owners := range ruleOwners {
		s.rules = append(s.rules, slabRule{guar: r.guar, body: r.body, owners: owners})
	}
	sort.Slice(s.rules, func(i, j int) bool {
		if s.rules[i].body != s.rules[j].body {
			return s.rules[i].body < s.rules[j].body
		}
		return s.rules[i].guar < s.rules[j].guar
	})
	return s
}

// EvalAll reports, in one word, whether the object is an answer to
// each of the slab's candidates: bit i of the result equals
// Compile(queries[i]).Eval(set) (the slab identity test pins exactly
// that, and the difffuzz kernel judge cross-checks it on every
// generated case). One witness scan per distinct requirement mask and
// one violation scan per tuple serve all candidates at once; a
// candidate's bit clears the first time one of its requirements goes
// unwitnessed or one of its rules fires, and the sweep returns early
// once no candidate remains live.
func (s *Slab) EvalAll(set boolean.Set) uint64 {
	tuples := set.Tuples()
	live := s.full
	for _, r := range s.reqs {
		if r.owners&live == 0 {
			continue // every owner already dead
		}
		witnessed := false
		// Descending scan with the same cutoff as Compiled.Eval: tuples
		// sort ascending, so anything numerically below the mask cannot
		// contain it.
		for i := len(tuples) - 1; i >= 0; i-- {
			t := uint64(tuples[i])
			if t < r.mask {
				break
			}
			if t&r.mask == r.mask {
				witnessed = true
				break
			}
		}
		if !witnessed {
			live &^= r.owners
			if live == 0 {
				return 0
			}
		}
	}
	for _, t := range tuples {
		w := uint64(t)
		for _, r := range s.rules {
			if r.body > w {
				// Rules sort by body; no later body fits in w either.
				break
			}
			if w&r.guar == r.body && r.owners&live != 0 {
				live &^= r.owners
				if live == 0 {
					return 0
				}
			}
		}
	}
	return live
}
