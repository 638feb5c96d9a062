package learn

import "sort"

// This file implements the binary-search subroutines of §3.1.2
// (Algorithms 2 and 3). Both operate on a slice of candidate
// variables and an elimination predicate backed by a membership
// question: eliminate(D) must report, with one question, whether D
// can be discarded because it contains no target variable.

// findOne returns one target variable from vars, or ok=false if the
// whole set is eliminated by a single question (Algorithm 2, "Find").
// It asks O(lg |vars|) questions when a target exists.
func findOne(vars []int, eliminate func([]int) bool) (int, bool) {
	if len(vars) == 0 {
		return 0, false
	}
	if eliminate(vars) {
		return 0, false
	}
	return narrow(vars, eliminate), true
}

// narrow binary-searches a set known to contain at least one target
// variable down to a single target variable.
func narrow(vars []int, eliminate func([]int) bool) int {
	for len(vars) > 1 {
		half := vars[:len(vars)/2]
		if eliminate(half) {
			vars = vars[len(vars)/2:]
		} else {
			vars = half
		}
	}
	return vars[0]
}

// findAll returns every target variable in vars (Algorithm 3,
// "FindAll"). Subtrees without targets are eliminated with one
// question each, so the total is O(|found|·lg|vars|) questions plus
// one.
func findAll(vars []int, eliminate func([]int) bool) []int {
	if len(vars) == 0 {
		return nil
	}
	if eliminate(vars) {
		return nil
	}
	if len(vars) == 1 {
		return []int{vars[0]}
	}
	mid := len(vars) / 2
	out := findAll(vars[:mid], eliminate)
	return append(out, findAll(vars[mid:], eliminate)...)
}

// findAllBatched is findAll with the recursion unrolled level by
// level: the elimination questions of one recursion depth are
// independent of each other, so each level is issued as a single
// batch that a BatchOracle takes in one call. It visits exactly
// the segments the recursive findAll visits — same splits, same
// questions, same total count — and returns the targets in the same
// left-to-right order.
func findAllBatched(vars []int, eliminateBatch func([][]int) []bool) []int {
	if len(vars) == 0 {
		return nil
	}
	type segment struct {
		vars []int
		pos  int // start offset in the original slice, for output order
	}
	type hit struct{ v, pos int }
	level := []segment{{vars, 0}}
	var found []hit
	for len(level) > 0 {
		batch := make([][]int, len(level))
		for i, s := range level {
			batch[i] = s.vars
		}
		eliminated := eliminateBatch(batch)
		var next []segment
		for i, s := range level {
			if eliminated[i] {
				continue
			}
			if len(s.vars) == 1 {
				found = append(found, hit{s.vars[0], s.pos})
				continue
			}
			mid := len(s.vars) / 2
			next = append(next,
				segment{s.vars[:mid], s.pos},
				segment{s.vars[mid:], s.pos + mid})
		}
		level = next
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	out := make([]int, len(found))
	for i, h := range found {
		out[i] = h.v
	}
	return out
}
