package verify

import (
	"math/rand"

	"qhorn/internal/oracle"
)

// Partial verification: a user may not have the patience for the full
// O(k) set. Sample asks a uniformly random subset of m questions; the
// guarantee of Theorem 4.2 then degrades from certainty to a
// detection probability, which experiment E20 measures against the
// fraction of the set asked.

// Sample returns a verification set containing m uniformly chosen
// questions of vs (all of them when m ≥ len). The relative order of
// the chosen questions is preserved.
func (vs Set) Sample(rng *rand.Rand, m int) Set {
	if m >= len(vs.Questions) {
		return vs
	}
	if m < 0 {
		m = 0
	}
	idx := rng.Perm(len(vs.Questions))[:m]
	chosen := make(map[int]bool, m)
	for _, i := range idx {
		chosen[i] = true
	}
	out := Set{Query: vs.Query}
	for i, q := range vs.Questions {
		if chosen[i] {
			out.Questions = append(out.Questions, q)
		}
	}
	return out
}

// DetectionRate estimates, over trials random m-question subsets, the
// probability that partial verification still catches the difference
// between the given query (vs.Query) and the intended one. It returns
// 1 when the queries are equivalent (there is nothing to miss).
func (vs Set) DetectionRate(rng *rand.Rand, intended oracle.Oracle, m, trials int) float64 {
	if trials <= 0 {
		return 0
	}
	full := vs.RunWith(intended)
	if full.Correct {
		return 1
	}
	// Record which questions disagree, then compute the hit chance of
	// random subsets directly.
	disagree := map[string]bool{}
	for _, d := range full.Disagreements {
		disagree[d.Question.Set.Key()] = true
	}
	hits := 0
	for t := 0; t < trials; t++ {
		sub := vs.Sample(rng, m)
		caught := false
		for _, q := range sub.Questions {
			if disagree[q.Set.Key()] {
				caught = true
				break
			}
		}
		if caught {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}
